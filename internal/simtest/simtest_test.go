package simtest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/telemetry"
)

// replicas labels the three independent worlds the crash and resume grids
// run per (faults, workers) cell. Each replica builds its own world from
// the same config, in parallel with the others, so state shared between
// worlds in one process would show as a divergence. The labels are the
// subtest names these grids used when the platform had a lock-stripe
// count per cell; they are kept so the grids' test IDs stay stable.
var replicas = []string{"shards=1", "shards=4", "shards=16"}

// smallConfig is a world small enough to run nine times under -race in a
// test, but still exercising every parallel path: both engine kinds, the
// organic population, VPN users, honeypot wiring, and cross-enrollment.
func smallConfig(seed uint64, workers int) core.Config {
	cfg := core.TestConfig()
	cfg.Seed = seed
	cfg.Days = 6
	cfg.OrganicPopulation = 300
	cfg.PoolSize = 200
	cfg.VPNUsers = 20
	cfg.Workers = workers
	return cfg
}

// TestParallelStreamMatchesSequential is the tentpole contract: for the
// same seed, the complete post-merge event stream is byte-identical
// whether the world steps sequentially or on a worker pool of any size.
func TestParallelStreamMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			want := Capture(smallConfig(seed, 0))
			if n := countEvents(t, want); n < 1000 {
				t.Fatalf("sequential run produced only %d events; comparison would be vacuous", n)
			}
			for _, workers := range []int{4, 8} {
				got := Capture(smallConfig(seed, workers))
				if !bytes.Equal(want, got) {
					t.Errorf("workers=%d: stream diverged from sequential run: hash %s != %s (lengths %d vs %d)",
						workers, Hash(got), Hash(want), len(got), len(want))
				}
			}
		})
	}
}

// TestCaptureRepeatable guards the harness itself: two fresh worlds with
// the same config must produce identical bytes, otherwise stream
// comparisons prove nothing.
func TestCaptureRepeatable(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(3, 4)
	a, b := Capture(cfg), Capture(cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("same config diverged across fresh runs: %s != %s", Hash(a), Hash(b))
	}
}

// TestTelemetryPureObserver enforces the observability invariant: a world
// instrumented with a live telemetry registry — including the per-day
// JSONL flush, which schedules extra (pure observer) callbacks — produces
// the byte-identical FSEV1 stream of an uninstrumented world, at any
// worker count. The test also asserts the instrumentation actually fired,
// so a silently dead registry cannot make the comparison vacuous.
func TestTelemetryPureObserver(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			want := Capture(smallConfig(11, workers))
			cfg := smallConfig(11, workers)
			cfg.Telemetry = telemetry.NewRegistry()
			var jsonl bytes.Buffer
			got := CaptureWorld(cfg, func(w *core.World) { w.StreamTelemetryDaily(&jsonl) })
			if !bytes.Equal(want, got) {
				t.Errorf("telemetry changed the stream: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
			snap := cfg.Telemetry.Snapshot()
			var platformEvents int64
			for name, v := range snap.Counters {
				if strings.HasPrefix(name, "platform.events.") {
					platformEvents += v
				}
			}
			if platformEvents == 0 {
				t.Error("no platform events counted; pure-observer comparison is vacuous")
			}
			if snap.Counters["step.sections"] == 0 {
				t.Error("tick tracer recorded no sections; step instrumentation dead")
			}
			if jsonl.Len() == 0 {
				t.Error("daily JSONL sink stayed empty")
			}
		})
	}
}

// TestDebugListenerPureObserver runs a capture with the -debug-addr
// machinery live and a goroutine hammering /metrics.json throughout —
// concurrent snapshots while the world steps in parallel. The stream must
// still match the uninstrumented baseline byte for byte.
func TestDebugListenerPureObserver(t *testing.T) {
	t.Parallel()
	want := Capture(smallConfig(5, 4))
	cfg := smallConfig(5, 4)
	cfg.Telemetry = telemetry.NewRegistry()
	srv, err := telemetry.ServeDebug("127.0.0.1:0", cfg.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	polls := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + srv.Addr() + "/metrics.json")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				polls++
			}
		}
	}()
	got := Capture(cfg)
	close(stop)
	<-done

	if polls == 0 {
		t.Fatal("debug listener was never polled; comparison is vacuous")
	}
	if !bytes.Equal(want, got) {
		t.Errorf("live debug listener changed the stream: hash %s != %s (lengths %d vs %d)",
			Hash(got), Hash(want), len(got), len(want))
	}
}

// countEvents decodes the stream and returns the number of events,
// verifying along the way that Capture emits well-formed FSEV1.
func countEvents(t *testing.T, stream []byte) int {
	t.Helper()
	r, err := eventio.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("captured stream has bad header: %v", err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("captured stream undecodable: %v", err)
	}
	return len(evs)
}
