package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMetricTables keeps the runner's metric tables and workload list in
// step with BENCHMARK.json, which tools outside the module read.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: runner has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: runner %s %s, BENCHMARK.json %s %s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, runner %v", names, workloadNames())
	}
}

// TestSlowdownTrimsStalls checks one stalled kernel round does not move
// the host slowdown the times are divided by.
func TestSlowdownTrimsStalls(t *testing.T) {
	y := yardstick{ms: []float64{19, 20, 20, 20, 20, 20, 20, 20, 20, 500}}
	if got := y.slowdown(); math.Abs(got-20/refKernelMs) > 1e-12 {
		t.Errorf("slowdown = %v, want %v", got, 20/refKernelMs)
	}
}

// buildFootsteps builds the footsteps binary serve-open drives.
func buildFootsteps(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "footsteps")
	cmd := exec.Command("go", "build", "-o", bin, "footsteps/cmd/footsteps")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build footsteps: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload shrunk, untraced and traced, with all
// of its correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := buildFootsteps(t)
	start := time.Now()
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rec, err := execute(options{workload: w, seed: 7, seconds: 1, trace: traced, smoke: true,
				footsteps: bin, scratch: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", w, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Checks)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			for _, m := range table {
				s, ok := rec.Metrics[m.name]
				if !ok {
					t.Errorf("%s (trace %v): no %s", w, traced, m.name)
				}
				if !traced && s.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, m.name, s.Value)
				}
			}
			if traced && rec.Metrics["trace.spans"].Value <= 0 {
				t.Errorf("%s: traced run decoded no spans", w)
			}
		}
	}
	t.Logf("smoke runs took %v", time.Since(start))
}

// TestDurableRecoveryMatchesStraightRun checks the crash the
// durable-graph workload injects is survived exactly: the stream
// reconstructed after Resume, RestoreWorld and re-derivation equals the
// stream of the same run without a crash.
func TestDurableRecoveryMatchesStraightRun(t *testing.T) {
	opt := options{seed: 3, smoke: true}
	cfg := durableGraphWorkload(opt).cfg
	r := &run{opt: opt, dir: t.TempDir()}
	crashed, err := durableRun(r, cfg, 0, nil, crashDay(cfg))
	if err != nil {
		t.Fatal(err)
	}
	straight, err := durableRun(r, cfg, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.checks) > 0 {
		t.Errorf("checks failed: %v", r.checks)
	}
	if crashed.hash != straight.hash || crashed.events != straight.events {
		t.Errorf("recovered stream %s (%d events) differs from straight run %s (%d events)",
			crashed.hash, crashed.events, straight.hash, straight.events)
	}
	if crashed.discarded == 0 {
		t.Errorf("the crash lost no framed events: recovery re-derived nothing")
	}
}
