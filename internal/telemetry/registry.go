// Package telemetry is the simulator's instrumentation plane: a
// lock-cheap registry of counters, gauges, and fixed-bucket histograms,
// a per-day JSONL sink, and a debug HTTP listener exposing expvar
// snapshots and pprof.
//
// The package is a strict leaf: it imports only the standard library, so
// every hot layer (platform, detection, intervention, aas, step, core)
// can wire instruments without import cycles.
//
// Telemetry is a PURE OBSERVER. Instruments never touch simulation
// state, never draw from any RNG, and never emit platform events, so the
// FSEV1 event stream is byte-identical with telemetry on, off, or
// sampled live over HTTP (see docs/OBSERVABILITY.md
// and docs/DETERMINISM.md). Every instrument method is nil-safe — a nil
// *Registry hands out nil instruments whose methods no-op — so wiring
// code calls unconditionally and "telemetry off" costs one nil check.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use;
// all methods no-op on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored to keep counters monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways (queue depth, live
// accounts). Safe for concurrent use; methods no-op on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. A value v lands in the first
// bucket whose upper bound satisfies v <= bound; values above the last
// bound land in the implicit overflow bucket. Bounds are fixed at
// creation, so observation is one binary search plus three atomic adds —
// no locks on the hot path. Methods no-op on a nil receiver.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1: last is overflow
	sum    atomic.Int64
	count  atomic.Int64
}

// newHistogram builds a histogram over strictly increasing bounds.
func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// DurationBuckets is the default bound set for nanosecond durations:
// 1µs … 10s, decade-spaced with a 3x midpoint per decade.
var DurationBuckets = []int64{
	1_000, 3_000, 10_000, 30_000, 100_000, 300_000, // 1µs–300µs
	1_000_000, 3_000_000, 10_000_000, 30_000_000, // 1ms–30ms
	100_000_000, 300_000_000, 1_000_000_000, 10_000_000_000, // 100ms–10s
}

// FineDurationBuckets resolves sub-millisecond latencies with 1-2-5
// spacing up to 1ms, then widening steps to 10s. Loopback request
// timings cluster in the tens of microseconds, where the decade-spaced
// DurationBuckets collapse p50 and p95 onto the same 100µs bound.
var FineDurationBuckets = []int64{
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, // 1µs–50µs
	100_000, 200_000, 500_000, 1_000_000, // 100µs–1ms
	5_000_000, 30_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// Registry is a named instrument set. Lookups take a read lock only when
// the instrument already exists; hot paths should capture instrument
// pointers at wire time and skip the registry entirely. A nil *Registry
// is "telemetry off": it returns nil instruments and a zero Snapshot.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Later calls return the existing
// histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1). The overflow bucket reports the last bound.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.Counts {
		cum += n
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a frozen, JSON-serializable view of a registry. Map keys
// serialize in sorted order, so encoded snapshots are reproducible for a
// given metric state.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state. Concurrent increments
// during the copy land in either the old or new snapshot — fine for
// monitoring, and the simulation's serial sections are quiesced at every
// point the sinks snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.sum.Load(),
			Count:  h.count.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// DeltaCounters returns this snapshot's counter values minus prev's —
// the per-interval rates behind the daily JSONL series. Counters absent
// from prev count from zero.
func (s Snapshot) DeltaCounters(prev Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}
