// Package step runs the simulator's per-tick plan/apply sections.
//
// A section steps one set of independent actors. Plan runs once per actor,
// in index order: it makes every stochastic decision for that actor —
// drawing only from the actor's own forked RNG stream (rng.Fork) and only
// *reading* shared state — and emits intents. When every actor has
// planned, a barrier lowers the world's phase word and the intents are
// applied in emission order on the same goroutine; apply is the only
// place shared state (platform, social graph, event log) mutates.
//
// Because planning sees the pre-section state and each actor draws from
// its own stream, the intent sequence — and therefore the event stream —
// is a pure function of the simulation seed. See docs/DETERMINISM.md.
package step

import (
	"time"

	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// Engine runs a world's sections. It carries the world's phase word, its
// span tracer and two counters; every one of them is a pure observer of
// the section except the phase word, which only checks. The nil *Engine
// is valid and runs sections with none of them.
type Engine struct {
	phase    *Phase
	trace    *trace.Tracer
	sections *telemetry.Counter
	intents  *telemetry.Counter
}

// NewEngine returns an engine that raises phase for every plan phase (so
// a mutator called from plan trips the single-writer check; see Phase),
// writes a section span with one plan child per section to tr, and counts
// step.sections and step.intents on reg. Each of the three may be nil.
func NewEngine(phase *Phase, reg *telemetry.Registry, tr *trace.Tracer) *Engine {
	return &Engine{
		phase:    phase,
		trace:    tr,
		sections: reg.Counter("step.sections"),
		intents:  reg.Counter("step.intents"),
	}
}

// Buffer is reusable intent scratch for RunInto. A caller that steps the
// same kind of intent every tick holds one Buffer per intent type and
// passes it to RunInto, which keeps the slice's capacity and the emit
// closure across ticks instead of allocating them per tick. The zero
// value is ready to use.
//
// Between ticks the slice is truncated, not zeroed: stale intents stay
// reachable until overwritten but are never observable, because RunInto
// truncates before planning. The pooled goldens in internal/simtest pin
// this.
type Buffer[T any] struct {
	buf  []T
	emit func(T)
}

// RunInto runs one plan/apply section over n actors.
//
// plan(i, emit) is called once for each actor i in [0, n), in order. It
// must treat shared simulation state as read-only and draw randomness only
// from actor i's own stream; emit is valid only during the call. After
// every actor has planned, apply is called once per intent in emission
// order. apply is where shared state may mutate; the engine's Phase word
// enforces this in race-detector builds.
//
// b keeps the intent slice and emit closure for the caller's next
// tick. Reuse is invisible to plan and apply.
func RunInto[T any](e *Engine, b *Buffer[T], n int, plan func(i int, emit func(T)), apply func(T)) {
	if n <= 0 {
		return
	}
	if b.emit == nil {
		b.emit = func(v T) { b.buf = append(b.buf, v) }
	}
	b.buf = b.buf[:0]
	var ph *Phase
	var sec *trace.Section
	if e != nil {
		ph = e.phase
		sec = e.trace.StartSection()
		e.sections.Inc()
	}
	var start time.Time
	if sec != nil {
		start = time.Now()
	}
	ph.beginPlan()
	for i := 0; i < n; i++ {
		plan(i, b.emit)
	}
	ph.endPlan()
	intents := len(b.buf)
	var planned time.Time
	if sec != nil {
		planned = time.Now()
	}
	for _, v := range b.buf {
		apply(v)
	}
	if e != nil {
		e.intents.Add(int64(intents))
	}
	if sec != nil {
		sec.End(planned.Sub(start), time.Since(planned), intents)
	}
}
