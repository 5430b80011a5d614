package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"footsteps/bench/stat"
)

func runs(vals ...float64) []run {
	rs := make([]run, len(vals))
	for i, v := range vals {
		rs[i] = run{seed: uint64(i + 1), value: v}
	}
	return rs
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "run_s", Better: "lower", Bound: 0.1}
	higher := bound{Name: "rps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * k
		}
		return out
	}
	cases := []struct {
		name     string
		old, new []float64
		b        bound
		want     string
	}{
		{"same runs", steady, steady, lower, "unchanged"},
		{"5% slower, within bound", steady, shift(1.05), lower, "unchanged"},
		{"20% slower", steady, shift(1.2), lower, "worse"},
		{"20% faster, every pair wins", steady, shift(0.8), lower, "better"},
		{"20% lower on a higher-is-better metric", steady, shift(0.8), higher, "worse"},
		{"20% higher on a higher-is-better metric", steady, shift(1.2), higher, "better"},
		{"noisy parent", []float64{50, 150, 80, 120, 60, 140, 70, 130, 90, 110}, shift(1.05), lower, "unresolved"},
		{"noisy parent, every new run better", []float64{150, 250, 180, 220, 160, 240, 170, 230, 190, 210}, steady, lower, "better"},
		// Wins 9 of 10 pairs but the medians differ by less than the
		// parent's quartile distance: no gain claimed.
		{"small win inside the spread", steady, []float64{99.9, 100.9, 98.9, 99.9, 101.9, 97.9, 99.9, 100.9, 98.9, 100.5}, lower, "unchanged"},
	}
	for _, c := range cases {
		if got := verdict(runs(c.old...), runs(c.new...), c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives the comparator end to end over record files
// and a BENCHMARK.json, and checks it flags the regressed row.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := `{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, run, setup float64, traceToo bool) string {
		var buf bytes.Buffer
		for seed := uint64(1); seed <= 10; seed++ {
			jitter := 1 + 0.01*float64(seed%3)
			rec := stat.Record{Workload: "w", Seed: seed, Correct: true, Attempted: 1, Metrics: map[string]stat.Summary{
				"run_s":   {Value: run * jitter, Unit: "s"},
				"setup_s": {Value: setup * jitter, Unit: "s"},
			}}
			b, _ := json.Marshal(rec)
			buf.Write(append(b, '\n'))
			if traceToo {
				rec.Trace, rec.Metrics = true, map[string]stat.Summary{"run_s": {Value: 1e9}}
				b, _ := json.Marshal(rec)
				buf.Write(append(b, '\n'))
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.jsonl", 2, 0.5, true)
	slower := write("new.jsonl", 3, 0.5, false)

	var out bytes.Buffer
	worse, err := compareFiles(&out, filepath.Join(dir, "BENCHMARK.json"), old, slower)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("a 50%% slower run_s was not flagged:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(strings.TrimSpace(lines[1]), "worse") || !strings.HasSuffix(strings.TrimSpace(lines[2]), "unchanged") {
		t.Errorf("unexpected table:\n%s", out.String())
	}

	out.Reset()
	if worse, err := compareFiles(&out, filepath.Join(dir, "BENCHMARK.json"), old, old); err != nil || worse {
		t.Errorf("same runs compared worse (%v):\n%s", err, out.String())
	}

	// Two sets piled into one file would pair the wrong runs.
	both := filepath.Join(dir, "both.jsonl")
	a, _ := os.ReadFile(old)
	b, _ := os.ReadFile(slower)
	if err := os.WriteFile(both, append(a, b...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&out, filepath.Join(dir, "BENCHMARK.json"), both, old); err == nil || !strings.Contains(err.Error(), "second untraced w run with seed 1") {
		t.Errorf("a file with two sets compared without error (%v)", err)
	}
}
