package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every instrument and the registry itself must be inert
// when nil — the telemetry-off state costs wiring code nothing.
func TestNilSafety(t *testing.T) {
	t.Parallel()
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", DurationBuckets)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if snap := reg.Snapshot(); len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry must snapshot empty")
	}
}

// TestConcurrentIncrementSnapshot drives counters, gauges, histograms,
// and instrument creation from many goroutines while snapshots race
// along; run under -race this is the registry's data-race gauntlet.
func TestConcurrentIncrementSnapshot(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	const workers, per = 8, 2000
	stop := make(chan struct{})
	var snapDone sync.WaitGroup
	snapDone.Add(1)
	go func() { // concurrent snapshotter races the incrementers below
		defer snapDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("level").Add(1)
				reg.Histogram("dist", []int64{8, 32, 128}).Observe(int64(i % 128))
				if i%100 == 0 {
					reg.Counter("born.later").Inc() // lookup path under contention
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapDone.Wait()
	if got := reg.Counter("shared").Value(); got != workers*per {
		t.Fatalf("shared counter = %d, want %d", got, workers*per)
	}
	if got := reg.Gauge("level").Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
	if got := reg.Histogram("dist", nil).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: v lands in
// the first bucket with v <= bound; above the last bound is overflow.
func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	h := reg.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10} { // all <= 10
		h.Observe(v)
	}
	h.Observe(11)   // (10, 100]
	h.Observe(100)  // (10, 100]
	h.Observe(101)  // (100, 1000]
	h.Observe(1000) // (100, 1000]
	h.Observe(1001) // overflow
	snap := reg.Snapshot().Histograms["h"]
	wantCounts := []int64{3, 2, 2, 1}
	for i, want := range wantCounts {
		if snap.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], want, snap.Counts)
		}
	}
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	if wantSum := int64(-5 + 0 + 10 + 11 + 100 + 101 + 1000 + 1001); snap.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", snap.Sum, wantSum)
	}
	if q := snap.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := snap.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (overflow reports last bound)", q)
	}
}

// TestSnapshotDelta checks per-interval counter rates.
func TestSnapshotDelta(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("a").Add(5)
	prev := reg.Snapshot()
	reg.Counter("a").Add(7)
	reg.Counter("b").Add(2)
	d := reg.Snapshot().DeltaCounters(prev)
	if d["a"] != 7 || d["b"] != 2 || len(d) != 2 {
		t.Fatalf("delta = %v, want a:7 b:2", d)
	}
}

// TestDayWriter exercises the JSONL sink: two days, totals and deltas.
func TestDayWriter(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	var buf bytes.Buffer
	dw := NewDayWriter(&buf, reg)
	epoch := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)

	reg.Counter("events").Add(10)
	if err := dw.WriteDay(0, epoch); err != nil {
		t.Fatal(err)
	}
	reg.Counter("events").Add(4)
	reg.Gauge("queue").Set(17)
	if err := dw.WriteDay(1, epoch.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec DayRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Day != 1 || rec.Counters["events"] != 14 || rec.Deltas["events"] != 4 || rec.Gauges["queue"] != 17 {
		t.Fatalf("day 1 record = %+v", rec)
	}
	if rec.SimTime != "2017-09-02T00:00:00Z" {
		t.Fatalf("sim_time = %q", rec.SimTime)
	}
}

// TestFormatDeterministic: the summary renders sorted and reproducibly.
func TestFormatDeterministic(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Counter("a.first").Add(2)
	reg.Gauge("m.mid").Set(3)
	reg.Histogram("lat.ns", DurationBuckets).Observe(2_000_000)
	s1 := reg.Snapshot().Format()
	s2 := reg.Snapshot().Format()
	if s1 != s2 {
		t.Fatal("Format is not reproducible")
	}
	if strings.Index(s1, "a.first") > strings.Index(s1, "m.mid") ||
		strings.Index(s1, "m.mid") > strings.Index(s1, "z.last") {
		t.Fatalf("metrics not name-sorted:\n%s", s1)
	}
	if !strings.Contains(s1, "2ms") {
		t.Fatalf(".ns histogram should render durations:\n%s", s1)
	}
	if got := (Snapshot{}).Format(); !strings.Contains(got, "no metrics") {
		t.Fatalf("empty snapshot format = %q", got)
	}
}
