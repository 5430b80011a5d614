package simtest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/telemetry"
)

// replicas labels the independent worlds the crash grid runs per faults
// setting. Each replica builds its own world from the same config, in
// parallel with the others, so state shared between worlds in one
// process would show as a divergence. The labels are the subtest names
// the grid used when the platform had a lock-stripe count and the plan
// phase a worker count per cell; they are kept so the grid's test IDs
// stay stable.
var replicas = []string{
	"shards=1/workers=1", "shards=1/workers=4", "shards=1/workers=8",
	"shards=4/workers=1", "shards=4/workers=4", "shards=4/workers=8",
	"shards=16/workers=1", "shards=16/workers=4", "shards=16/workers=8",
}

// smallConfig is a world small enough to run many times under -race in
// a test, but still exercising every stepping path: both engine kinds,
// the organic population, VPN users, honeypot wiring, and
// cross-enrollment.
func smallConfig(seed uint64) core.Config {
	cfg := core.TestConfig()
	cfg.Seed = seed
	cfg.Days = 6
	cfg.OrganicPopulation = 300
	cfg.PoolSize = 200
	cfg.VPNUsers = 20
	return cfg
}

// TestParallelStreamMatchesSequential is the determinism contract: for
// the same seed, worlds stepping side by side on separate goroutines
// produce, byte for byte, the stream of a world stepping on its own.
// Planning inside a world is sequential, so the parallelism left is
// between worlds in one process (the crash and resume grids, bench, a
// server): any state two worlds share by accident shows here as a
// divergence, and under -race as a data race.
func TestParallelStreamMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			want := Capture(smallConfig(seed))
			if n := countEvents(t, want); n < 1000 {
				t.Fatalf("run produced only %d events; comparison would be vacuous", n)
			}
			got := make([][]byte, 2)
			sideBySide(len(got), func(i int) { got[i] = Capture(smallConfig(seed)) })
			for i, g := range got {
				if !bytes.Equal(want, g) {
					t.Errorf("world %d of %d side by side: stream diverged from the world run alone: hash %s != %s (lengths %d vs %d)",
						i+1, len(got), Hash(g), Hash(want), len(g), len(want))
				}
			}
		})
	}
}

// sideBySide calls run(0) … run(n-1) at the same time, each on its own
// goroutine, and waits for all of them.
func sideBySide(n int, run func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
}

// TestCaptureRepeatable guards the harness itself: two fresh worlds with
// the same config must produce identical bytes, otherwise stream
// comparisons prove nothing.
func TestCaptureRepeatable(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(3)
	a, b := Capture(cfg), Capture(cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("same config diverged across fresh runs: %s != %s", Hash(a), Hash(b))
	}
}

// TestTelemetryPureObserver enforces the observability invariant: a world
// instrumented with a live telemetry registry — including the per-day
// JSONL flush, which schedules extra (pure observer) callbacks — produces
// the byte-identical FSEV1 stream of an uninstrumented world. The test
// also asserts the instrumentation actually fired, so a silently dead
// registry cannot make the comparison vacuous. The two subtests are
// independent replicas of the same check, run in parallel; their names
// are the worker counts they ran with when planning had a worker pool,
// kept so the test IDs stay stable.
func TestTelemetryPureObserver(t *testing.T) {
	t.Parallel()
	for _, replica := range []string{"workers=1", "workers=4"} {
		t.Run(replica, func(t *testing.T) {
			t.Parallel()
			want := Capture(smallConfig(11))
			cfg := smallConfig(11)
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
				t.Error("step engine counted no sections; step instrumentation dead")
			}
			if jsonl.Len() == 0 {
				t.Error("daily JSONL sink stayed empty")
			}
		})
	}
}

// TestDebugListenerPureObserver runs a capture with the -debug-addr
// machinery live and a goroutine hammering /metrics.json throughout —
// snapshots taken concurrently with the world stepping. The stream must
// still match the uninstrumented baseline byte for byte.
func TestDebugListenerPureObserver(t *testing.T) {
	t.Parallel()
	want := Capture(smallConfig(5))
	cfg := smallConfig(5)
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
