// Package trace is the simulator's deterministic span-tracing subsystem:
// per-request latency attribution through the platform.Do pipeline, with
// child spans from the stepping engine's tick phases, the AAS resilience
// layer's retry/breaker transitions, and the intervention controller's
// enforcement decisions.
//
// The design contract mirrors telemetry's pure-observer rule, but is
// stricter because spans carry identity:
//
//   - Span identity derives from (tick, sequence), where tick is the
//     simulated instant and sequence is a per-tick counter advanced only
//     on the serial scheduler/apply goroutine. Wall clocks and global
//     atomic counters never reach an identity field, so the span IDs in
//     a trace are byte-identical from run to run — only the timing
//     fields (Start, Wall, stage durations) vary.
//   - Sampling is a pure SplitMix64 hash of (seed, tick, sequence).
//     Sequence numbers are allocated for *every* request, sampled or
//     not, so the identity of any given span is stable at every sample
//     rate: the 1/1024 trace of a run is a strict subset of its 1/1
//     trace.
//   - Tracing is provably inert: the tracer consumes no RNG draws,
//     feeds nothing back into any caller's control flow, and all its
//     methods no-op on a nil receiver. The FSEV1 stream and report
//     hashes are byte-identical with tracing on or off at any sample
//     rate (pinned in internal/simtest).
//
// Spans stream to the FTRC1 binary format (codec.go); the `footsteps
// trace` subcommand reads it back for stats, grep, and Chrome
// trace-event export. See docs/OBSERVABILITY.md.
package trace

import (
	"io"
	"time"

	"footsteps/internal/telemetry"
)

// Stage identifies one phase of the platform.Do pipeline (or a stepping
// phase) inside a span's stage records.
type Stage uint8

// Pipeline stages, in Do's canonical order (see docs/ARCHITECTURE.md).
const (
	StagePreflight Stage = iota // structural target existence check
	StageSession                // session-epoch validation
	StageFaults                 // fault-injector verdict
	StageRateLimit              // hourly limiter check
	StageGatekeep               // gatekeeper (countermeasure) check
	StageApply                  // state mutation
	StageTelemetry              // ASN resolve + metric increments
	StageEmit                   // event-log fan-out to subscribers
	StagePlan                   // a step section's plan phase
	stageCount
)

func (s Stage) String() string {
	switch s {
	case StagePreflight:
		return "preflight"
	case StageSession:
		return "session"
	case StageFaults:
		return "faults"
	case StageRateLimit:
		return "ratelimit"
	case StageGatekeep:
		return "gatekeep"
	case StageApply:
		return "apply"
	case StageTelemetry:
		return "telemetry"
	case StageEmit:
		return "emit"
	case StagePlan:
		return "plan"
	default:
		return "unknown"
	}
}

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	KindRequest     Kind = iota // one platform.Do request
	KindLogin                   // one platform.Login
	KindSection                 // one step.RunInto section (plan + apply)
	KindPlan                    // a section's plan phase (its one child)
	KindRetry                   // an AAS backoff retry being scheduled
	KindBreaker                 // a circuit-breaker transition
	KindEnforcement             // an intervention/enforcement decision
	kindCount
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindLogin:
		return "login"
	case KindSection:
		return "section"
	case KindPlan:
		return "plan"
	case KindRetry:
		return "retry"
	case KindBreaker:
		return "breaker"
	case KindEnforcement:
		return "enforcement"
	default:
		return "unknown"
	}
}

// Stage verdict / instant-span codes. A stage record carries the code of
// the decision made at that stage; instant spans (retry, breaker,
// enforcement) carry one in the span's Code field.
const (
	VerdictOK          uint8 = iota // stage passed
	VerdictFail                     // structural failure
	VerdictRevoked                  // session revoked
	VerdictUnavailable              // injected infrastructure failure
	VerdictStorm                    // rate-limit storm active / storm-attributed denial
	VerdictDenied                   // rate limit denied
	VerdictBlocked                  // gatekeeper blocked synchronously
	VerdictDelayed                  // gatekeeper scheduled deferred removal
	VerdictEligible                 // over threshold but assignment left it alone
	VerdictMoot                     // enforcement fired but the edge was already gone

	// Breaker transition codes (KindBreaker spans).
	BreakerOpened   = VerdictFail
	BreakerReopened = VerdictRevoked
	BreakerClosed   = VerdictOK
)

// VerdictName renders a stage/instant code.
func VerdictName(v uint8) string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictFail:
		return "fail"
	case VerdictRevoked:
		return "revoked"
	case VerdictUnavailable:
		return "unavailable"
	case VerdictStorm:
		return "storm"
	case VerdictDenied:
		return "denied"
	case VerdictBlocked:
		return "blocked"
	case VerdictDelayed:
		return "delayed"
	case VerdictEligible:
		return "eligible"
	case VerdictMoot:
		return "moot"
	default:
		return "unknown"
	}
}

// StageRec is one timed pipeline stage inside a span: the stage, the
// decision it made, and the wall nanoseconds elapsed since the previous
// stage mark.
type StageRec struct {
	Stage   Stage
	Verdict uint8
	Ns      int64
}

// Span is one traced unit of work. Identity fields (Tick, Shard, Seq,
// Parent, Kind) are deterministic — pure functions of the simulated
// timeline; timing fields (Start, Wall, stage Ns) are wall-clock
// measurements and vary run to run.
type Span struct {
	Tick   int64  // simulated instant, UnixNano
	Shard  uint32 // always 0; older traces carry plan shard indices here
	Seq    uint32 // per-tick sequence number, serially allocated
	Parent uint64 // parent span ID; 0 = root
	Kind   Kind
	Action uint8 // platform.ActionType code
	Code   uint8 // terminal outcome (requests) or instant code

	Actor  uint64
	Target uint64
	Post   uint64
	ASN    uint32
	Value  int64 // kind-specific: retry delay ns, intent count, day count

	Start  int64 // wall ns since tracer start (timing, not identity)
	Wall   int64 // total wall ns in the span
	Stages []StageRec
}

// ID returns the span's deterministic identifier: a SplitMix64 mix of
// (Tick, Seq). Every span emitted at one tick holds a distinct Seq, so
// IDs are unique within a trace and identical from run to run.
func (s *Span) ID() uint64 { return SpanID(s.Tick, s.Seq) }

// Day returns the simulated day index of the span (days since epochNanos).
func (s *Span) Day() int64 { return (s.Tick - epochNanos) / int64(24*time.Hour) }

// epochNanos is clock.Epoch (2017-09-01T00:00:00Z) as UnixNano. Kept as
// a literal so the trace package stays a leaf below clock's consumers.
const epochNanos = 1504224000000000000

// mix64 is the SplitMix64 finalizer (same constants as internal/rng):
// a bijective, well-mixed pure function of its input.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SpanID derives a span identifier from its tick and sequence number.
func SpanID(tick int64, seq uint32) uint64 {
	return mix64(mix64(uint64(tick)) + uint64(seq))
}

// Sampled reports whether the span at (tick, seq) is selected by a
// deterministic 1-in-sampleN sampler keyed on seed. sampleN <= 1 keeps
// everything.
func Sampled(seed uint64, tick int64, seq uint32, sampleN uint64) bool {
	if sampleN <= 1 {
		return true
	}
	return mix64(seed^SpanID(tick, seq))%sampleN == 0
}

// Tracer records spans to an FTRC1 stream. The zero of usefulness is a
// nil *Tracer: every method no-ops, which is the tracing-off state and
// costs one pointer check per call site.
//
// A Tracer is NOT safe for concurrent use. All span starts, stage
// marks, ends, and instants must happen on the serial scheduler/apply
// goroutine — which is where every platform mutation already lives, so
// the constraint is free.
type Tracer struct {
	w         *Writer
	seed      uint64
	sampleN   uint64
	nowSim    func() int64
	wallStart time.Time

	lastTick int64
	seq      uint32

	curReq  uint64 // ID of the in-flight sampled request span, 0 = none
	lastReq uint64 // ID of the last completed sampled request span

	active  Active  // scratch for the in-flight request span
	scratch Span    // scratch for instant and child-span emission
	section Section // scratch for the in-flight step section

	telTotal   *telemetry.Counter // requests seen (sampled or not)
	telSampled *telemetry.Counter // spans written
	telDropped *telemetry.Counter // spans lost to a sink write error
}

// New builds a tracer streaming FTRC1 to out at a deterministic 1-in-
// sampleN rate (0 and 1 both mean "every span"). seed keys the sampler;
// use the simulation seed so the same run traces the same spans.
//
// Call BindClock before any traffic flows; until then spans land on
// tick 0.
func New(out io.Writer, seed, sampleN uint64) (*Tracer, error) {
	w, err := NewWriter(out, seed, sampleN)
	if err != nil {
		return nil, err
	}
	if sampleN < 1 {
		sampleN = 1
	}
	t := &Tracer{
		w:         w,
		seed:      seed,
		sampleN:   sampleN,
		nowSim:    func() int64 { return 0 },
		wallStart: time.Now(),
		lastTick:  -1,
	}
	return t, nil
}

// BindClock points the tracer at the simulated clock. now must return
// the current simulated instant as UnixNano; core binds the scheduler's
// clock here during world construction.
func (t *Tracer) BindClock(now func() int64) {
	if t == nil || now == nil {
		return
	}
	t.nowSim = now
}

// WireTelemetry registers the tracer's own counters on reg (span totals,
// sampled emissions, sink write errors). Nil-safe on both sides.
func (t *Tracer) WireTelemetry(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	t.telTotal = reg.Counter("trace.requests.seen")
	t.telSampled = reg.Counter("trace.spans.written")
	t.telDropped = reg.Counter("trace.spans.dropped")
}

// SampleN reports the configured 1-in-N sample rate (1 = everything).
func (t *Tracer) SampleN() uint64 {
	if t == nil {
		return 0
	}
	return t.sampleN
}

// nextSeq allocates the next per-tick sequence number. Must run on the
// serial goroutine.
func (t *Tracer) nextSeq() (int64, uint32) {
	tick := t.nowSim()
	if tick != t.lastTick {
		t.lastTick, t.seq = tick, 0
	}
	seq := t.seq
	t.seq++
	return tick, seq
}

// write emits one span, counting sink failures. The writer's error is
// sticky; Err/Close surface the first one.
func (t *Tracer) write(sp *Span) {
	if err := t.w.WriteSpan(sp); err != nil {
		t.telDropped.Inc()
		return
	}
	t.telSampled.Inc()
}

// CurrentRequest returns the ID of the in-flight sampled request span,
// or 0. Gatekeepers use it to parent enforcement-decision spans.
func (t *Tracer) CurrentRequest() uint64 {
	if t == nil {
		return 0
	}
	return t.curReq
}

// LastRequest returns the ID of the most recently completed request
// span, or 0 when the last request went unsampled. The AAS resilience
// layer uses it to parent retry/breaker spans onto the request that
// triggered them.
func (t *Tracer) LastRequest() uint64 {
	if t == nil {
		return 0
	}
	return t.lastReq
}

// Active is one in-flight request span. A nil *Active (tracing off, or
// this request unsampled) no-ops everywhere, so pipeline code calls its
// methods unconditionally.
type Active struct {
	t    *Tracer
	span Span
	mark time.Time
}

// StartRequest opens a span for one pipeline request (KindRequest or
// KindLogin). It always advances the sequence counter — identity is
// allocated whether or not the span is sampled — and returns nil when
// the sampler passes on it. The returned Active is tracer-owned scratch,
// valid until End.
func (t *Tracer) StartRequest(kind Kind, actor uint64, action uint8) *Active {
	if t == nil {
		return nil
	}
	tick, seq := t.nextSeq()
	t.telTotal.Inc()
	t.lastReq = 0
	if !Sampled(t.seed, tick, seq, t.sampleN) {
		return nil
	}
	a := &t.active
	a.t = t
	a.span = Span{
		Tick: tick, Seq: seq,
		Kind: kind, Action: action, Actor: actor,
		Stages: a.span.Stages[:0],
	}
	a.mark = time.Now()
	a.span.Start = int64(a.mark.Sub(t.wallStart))
	t.curReq = a.span.ID()
	return a
}

// Stage records one completed pipeline stage: the wall time since the
// previous mark, the stage, and its verdict.
func (a *Active) Stage(st Stage, verdict uint8) {
	if a == nil {
		return
	}
	now := time.Now()
	a.span.Stages = append(a.span.Stages, StageRec{Stage: st, Verdict: verdict, Ns: int64(now.Sub(a.mark))})
	a.mark = now
}

// End closes the span with its terminal outcome and emits it.
func (a *Active) End(outcome uint8, target, post uint64, asn uint32) {
	if a == nil {
		return
	}
	t := a.t
	a.span.Code = outcome
	a.span.Target, a.span.Post, a.span.ASN = target, post, asn
	a.span.Wall = int64(time.Since(t.wallStart)) - a.span.Start
	t.lastReq = a.span.ID()
	t.curReq = 0
	t.write(&a.span)
}

// Instant emits a zero-duration span (retry scheduled, breaker
// transition, enforcement decision). It always allocates a sequence
// number; emission happens when the span rides a sampled parent
// (parent != 0) or, parentless, when the sampler selects it directly.
func (t *Tracer) Instant(kind Kind, actor uint64, action uint8, code uint8, parent uint64, value int64) {
	if t == nil {
		return
	}
	tick, seq := t.nextSeq()
	if parent == 0 && !Sampled(t.seed, tick, seq, t.sampleN) {
		return
	}
	sp := &t.scratch
	*sp = Span{
		Tick: tick, Seq: seq, Parent: parent,
		Kind: kind, Action: action, Code: code,
		Actor: actor, Value: value,
		Start:  int64(time.Since(t.wallStart)),
		Stages: sp.Stages[:0],
	}
	t.write(sp)
}

// Section is one in-flight step.RunInto section span: the plan phase
// plus the apply phase. StartSection and End run on the serial
// goroutine. A nil *Section no-ops.
type Section struct {
	t    *Tracer
	span Span
}

// StartSection opens a section span. Two sequence numbers are allocated,
// the section's and its plan child's — unconditionally, so identities
// stay stable across sample rates. Returns nil when the section goes
// unsampled; the section and its child sample as a unit.
func (t *Tracer) StartSection() *Section {
	if t == nil {
		return nil
	}
	tick, seq := t.nextSeq()
	t.seq++ // the plan child's
	if !Sampled(t.seed, tick, seq, t.sampleN) {
		return nil
	}
	s := &t.section
	s.t = t
	s.span = Span{
		Tick: tick, Seq: seq, Kind: KindSection,
		Start:  int64(time.Since(t.wallStart)),
		Stages: s.span.Stages[:0],
	}
	return s
}

// End closes the section with its plan and apply durations and the
// intents it planned (and applied), then emits the section span and its
// one plan child.
func (s *Section) End(planDur, applyDur time.Duration, intents int) {
	if s == nil {
		return
	}
	t := s.t
	s.span.Wall = int64(time.Since(t.wallStart)) - s.span.Start
	s.span.Value = int64(intents)
	s.span.Stages = append(s.span.Stages, StageRec{Stage: StageApply, Ns: int64(applyDur)})
	t.write(&s.span)
	sp := &t.scratch
	*sp = Span{
		Tick: s.span.Tick, Seq: s.span.Seq + 1,
		Parent: s.span.ID(), Kind: KindPlan,
		Value: int64(intents),
		Start: s.span.Start, Wall: int64(planDur),
		Stages: sp.Stages[:0],
	}
	t.write(sp)
}

// Spans reports how many spans have been written.
func (t *Tracer) Spans() uint64 {
	if t == nil {
		return 0
	}
	return t.w.Count()
}

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.w.Err()
}

// Flush drains buffered output to the sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	return t.w.Flush()
}

// Close flushes and returns the first error the sink ever produced.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	return t.w.Close()
}
