// Package step provides the determinism-preserving worker pool behind the
// simulator's parallel per-tick stepping.
//
// The execution model is an intent/apply split. Work for one tick is
// partitioned into shards of independent actors. Each shard runs a
// generation function that makes every stochastic decision for its actors
// — drawing only from per-actor forked RNG streams (rng.Fork) and only
// *reading* shared state — and emits intents into a buffer private to the
// shard. When every shard has finished, the intents are applied serially
// in (shardID, emission seq) order by a single goroutine, which is the
// only place shared state (platform, social graph, event log) mutates.
//
// Because generation sees a frozen pre-tick snapshot and each actor draws
// from its own stream, the merged intent sequence — and therefore the
// post-merge event stream — is a pure function of the simulation seed.
// Worker count changes wall-clock time, never bytes: Run with 1 worker
// and Run with 8 workers produce identical applies in identical order.
// See docs/DETERMINISM.md.
package step

import (
	"sync"
	"time"

	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// Pool is a bounded worker pool for shard generation. The zero/nil Pool is
// valid and runs generation inline on the calling goroutine, which by
// construction produces exactly the same apply sequence as any worker
// count; everything still goes through the same generate-barrier-apply
// pipeline so sequential and parallel runs share one code path.
type Pool struct {
	workers int
	tracer  *telemetry.TickTracer
	trace   *trace.Tracer
	phase   *Phase
}

// NewPool returns a pool running shard generation on up to workers
// goroutines. workers <= 1 yields an inline (sequential) pool.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// SetTracer installs a telemetry tick tracer on the pool. The tracer is
// a pure observer — it records wall-clock phase durations and intent
// counts into atomics and feeds nothing back into Run's control flow, so
// tracing never changes the apply order or the event stream. A nil
// tracer (the default) disables timing entirely.
func (p *Pool) SetTracer(tr *telemetry.TickTracer) {
	if p == nil {
		return
	}
	p.tracer = tr
}

// Tracer returns the pool's tracer (nil for a nil pool or none set).
func (p *Pool) Tracer() *telemetry.TickTracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// SetTrace installs a span tracer on the pool: each RunInto section then
// emits a section span with per-shard plan children (subject to the
// tracer's sampler). Like the telemetry tracer it is a pure observer —
// nothing it records feeds back into Run's control flow.
func (p *Pool) SetTrace(tr *trace.Tracer) {
	if p == nil {
		return
	}
	p.trace = tr
}

// Trace returns the pool's span tracer (nil for a nil pool or none set).
func (p *Pool) Trace() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.trace
}

// SetPhase installs the world's phase word: RunInto raises it for every
// plan phase, so a mutator called from a generation function trips the
// single-writer check (see Phase).
func (p *Pool) SetPhase(ph *Phase) {
	if p == nil {
		return
	}
	p.phase = ph
}

// phaseWord returns the pool's phase word (nil for a nil pool).
func (p *Pool) phaseWord() *Phase {
	if p == nil {
		return nil
	}
	return p.phase
}

// Buffers is reusable per-shard intent scratch for RunInto. A caller
// that steps the same kind of intent every tick holds one Buffers per
// intent type and passes it to RunInto, which reuses the accumulated
// slice capacity across ticks instead of reallocating it per tick. The
// zero value is ready to use.
//
// A Buffers value must not be shared by concurrent Run calls. Between
// ticks the shard slices are truncated, not zeroed: stale intent values
// stay reachable (keeping what they point at alive) until overwritten,
// but are never observable — RunInto resets every shard to length zero
// before generation, so no intent from a previous tick can leak into
// the apply sequence. The pooled-vs-fresh stream property test in
// internal/simtest pins this.
type Buffers[T any] struct {
	bufs [][]T
	// emits caches the per-shard emit closures so steady-state ticks do
	// not materialize n fresh closures per section. Each closure reads
	// b.bufs at call time, so buffer-array regrowth cannot strand it.
	emits []func(T)
}

// emit returns the cached emit closure for shard i, creating it on
// first use.
func (b *Buffers[T]) emit(i int) func(T) {
	for len(b.emits) <= i {
		j := len(b.emits)
		b.emits = append(b.emits, func(v T) { b.bufs[j] = append(b.bufs[j], v) })
	}
	return b.emits[i]
}

// Run executes one tick's intent/apply cycle over n shards with fresh
// (per-call) intent buffers. Equivalent to RunInto with nil Buffers.
func Run[T any](p *Pool, n int, gen func(shard int, emit func(T)), apply func(T)) {
	RunInto(p, nil, n, gen, apply)
}

// RunInto executes one tick's intent/apply cycle over n shards.
//
// gen(shard, emit) is called once per shard in [0, n), concurrently on up
// to p.Workers() goroutines. It must treat shared simulation state as
// read-only and confine mutation to the shard's own actors and to emitted
// intents; all randomness must come from streams owned by the shard's
// actors. emit is only valid during that gen call.
//
// After every shard has generated — a full barrier, so generation always
// observes the pre-tick state — apply is invoked serially on the calling
// goroutine for every intent, ordered by (shardID, emission seq). apply
// is where shared state may mutate; the pool's Phase word enforces this
// in race-detector builds.
//
// b, when non-nil, provides the per-shard intent buffers and keeps their
// capacity for the caller's next tick; nil allocates fresh buffers.
// Buffer reuse is invisible to gen and apply — the apply sequence is
// byte-for-byte the one a fresh allocation would produce.
func RunInto[T any](p *Pool, b *Buffers[T], n int, gen func(shard int, emit func(T)), apply func(T)) {
	if n <= 0 {
		return
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	tr := p.Tracer()
	tr.SectionStart()
	// The span section must be opened on the calling (serial) goroutine:
	// StartSection allocates this section's deterministic sequence range.
	// ShardDone writes only disjoint per-shard slots, so workers may call
	// it concurrently; emission happens in sec.End, after the barrier.
	sec := p.Trace().StartSection(n)
	var bufs [][]T
	var emits []func(T)
	if b == nil {
		bufs = make([][]T, n)
	} else {
		if cap(b.bufs) < n {
			grown := make([][]T, n)
			copy(grown, b.bufs)
			b.bufs = grown
		}
		bufs = b.bufs[:n]
		for i := range bufs {
			bufs[i] = bufs[i][:0]
		}
		// Materialize any missing emit closures now, before workers
		// start: b.emits is then read-only for the rest of the call.
		b.emit(n - 1)
		emits = b.emits
	}
	// runShard generates one shard, timing it when tracing is on. The
	// timing wrapper is identical on the inline and pooled paths and
	// only writes to telemetry atomics, so it cannot affect the bytes.
	runShard := func(i int) {
		var em func(T)
		if emits != nil {
			em = emits[i]
		} else {
			em = func(v T) { bufs[i] = append(bufs[i], v) }
		}
		if !tr.Enabled() && sec == nil {
			gen(i, em)
			return
		}
		start := time.Now()
		gen(i, em)
		d := time.Since(start)
		if tr.Enabled() {
			tr.ShardPlanned(d, len(bufs[i]))
		}
		sec.ShardDone(i, d, len(bufs[i]))
	}
	ph := p.phaseWord()
	ph.beginPlan()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runShard(i)
		}
	} else {
		var wg sync.WaitGroup
		shards := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range shards {
					runShard(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			shards <- i
		}
		close(shards)
		wg.Wait()
	}
	ph.endPlan()
	var applyStart time.Time
	if tr.Enabled() || sec != nil {
		applyStart = time.Now()
	}
	applied := 0
	for _, buf := range bufs {
		applied += len(buf)
		for _, v := range buf {
			apply(v)
		}
	}
	if tr.Enabled() || sec != nil {
		applyDur := time.Since(applyStart)
		if tr.Enabled() {
			tr.Applied(applyDur, applied)
		}
		sec.End(applyDur, applied)
	}
}

// Chunks partitions count items into shards of at most chunk items and
// returns the shard bounds as (lo, hi) pairs flattened into a slice of
// [2]int. It exists so callers sharding large actor sets can amortize
// per-shard dispatch overhead while keeping the shard decomposition — and
// hence the (shardID, seq) merge order — a pure function of count and
// chunk, independent of worker count.
func Chunks(count, chunk int) [][2]int {
	if count <= 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = 1
	}
	return ChunksInto(nil, count, chunk)
}

// ChunksInto is Chunks appending into dst (reusing its capacity), for
// callers that recompute the same decomposition every tick. The bounds
// depend only on (count, chunk), so reuse cannot change the merge order.
func ChunksInto(dst [][2]int, count, chunk int) [][2]int {
	if count <= 0 {
		return dst[:0]
	}
	if chunk <= 0 {
		chunk = 1
	}
	dst = dst[:0]
	for lo := 0; lo < count; lo += chunk {
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		dst = append(dst, [2]int{lo, hi})
	}
	return dst
}
