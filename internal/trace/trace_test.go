package trace

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// collect decodes every span in an FTRC1 byte stream, copying stages
// (the reader's span is reusable scratch).
func collect(t *testing.T, stream []byte) []Span {
	t.Helper()
	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var out []Span
	for {
		sp, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		cp := *sp
		cp.Stages = append([]StageRec(nil), sp.Stages...)
		out = append(out, cp)
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	tr.BindClock(func() int64 { return 0 })
	tr.WireTelemetry(nil)
	if a := tr.StartRequest(KindRequest, 1, 0); a != nil {
		t.Fatal("nil tracer returned a live span")
	}
	var a *Active
	a.Stage(StageApply, VerdictOK)
	a.End(0, 0, 0, 0)
	tr.Instant(KindRetry, 1, 0, 0, 0, 0)
	if s := tr.StartSection(); s != nil {
		t.Fatal("nil tracer returned a live section")
	}
	var sec *Section
	sec.End(time.Millisecond, time.Millisecond, 3)
	if tr.CurrentRequest() != 0 || tr.LastRequest() != 0 || tr.Spans() != 0 || tr.SampleN() != 0 {
		t.Fatal("nil tracer reported state")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanIdentityDeterministic(t *testing.T) {
	if SpanID(100, 1) == SpanID(100, 2) || SpanID(100, 1) == SpanID(101, 1) {
		t.Fatal("span IDs collide across (tick, seq)")
	}
	if SpanID(100, 1) != SpanID(100, 1) {
		t.Fatal("SpanID not a pure function")
	}
}

func TestRequestSpanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr, err := New(&buf, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	tick := int64(1000)
	tr.BindClock(func() int64 { return tick })

	a := tr.StartRequest(KindRequest, 7, 1)
	if a == nil {
		t.Fatal("1/1 sampler dropped a span")
	}
	if tr.CurrentRequest() == 0 {
		t.Fatal("no in-flight request id")
	}
	a.Stage(StagePreflight, VerdictOK)
	a.Stage(StageRateLimit, VerdictDenied)
	a.End(2, 9, 0, 64500)
	if tr.CurrentRequest() != 0 {
		t.Fatal("in-flight id survived End")
	}
	if tr.LastRequest() != SpanID(1000, 0) {
		t.Fatalf("LastRequest = %d, want %d", tr.LastRequest(), SpanID(1000, 0))
	}

	tick = 2000
	tr.Instant(KindRetry, 7, 1, 2, tr.LastRequest(), int64(5*time.Second))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	spans := collect(t, buf.Bytes())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	req := spans[0]
	if req.Tick != 1000 || req.Shard != 0 || req.Seq != 0 || req.Kind != KindRequest {
		t.Fatalf("request identity wrong: %+v", req)
	}
	if req.Actor != 7 || req.Target != 9 || req.ASN != 64500 || req.Code != 2 || req.Action != 1 {
		t.Fatalf("request fields wrong: %+v", req)
	}
	if len(req.Stages) != 2 || req.Stages[0].Stage != StagePreflight || req.Stages[1].Verdict != VerdictDenied {
		t.Fatalf("stages wrong: %+v", req.Stages)
	}
	ret := spans[1]
	if ret.Kind != KindRetry || ret.Tick != 2000 || ret.Seq != 0 || ret.Parent != req.ID() {
		t.Fatalf("retry span wrong: %+v", ret)
	}
	if ret.Value != int64(5*time.Second) || ret.Code != 2 {
		t.Fatalf("retry payload wrong: %+v", ret)
	}
}

// TestSamplingIdentityStable pins the core determinism property: the
// spans kept at 1/N are an identity-exact subset of the spans kept at
// 1/1, because sequence numbers advance whether or not a span is
// sampled.
func TestSamplingIdentityStable(t *testing.T) {
	run := func(sampleN uint64) []Span {
		var buf bytes.Buffer
		tr, err := New(&buf, 99, sampleN)
		if err != nil {
			t.Fatal(err)
		}
		tick := int64(0)
		tr.BindClock(func() int64 { return tick })
		for i := 0; i < 64; i++ {
			tick = int64(i) * 1e9
			for j := 0; j < 8; j++ {
				a := tr.StartRequest(KindRequest, uint64(j), 0)
				a.Stage(StageApply, VerdictOK)
				a.End(0, 0, 0, 0)
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return collect(t, buf.Bytes())
	}

	full := run(1)
	if len(full) != 64*8 {
		t.Fatalf("full trace has %d spans, want %d", len(full), 64*8)
	}
	sampled := run(4)
	if len(sampled) == 0 || len(sampled) >= len(full) {
		t.Fatalf("1/4 sample kept %d of %d spans", len(sampled), len(full))
	}
	ids := make(map[uint64]Span, len(full))
	for _, sp := range full {
		ids[sp.ID()] = sp
	}
	for _, sp := range sampled {
		want, ok := ids[sp.ID()]
		if !ok {
			t.Fatalf("sampled span %d not in full trace", sp.ID())
		}
		if want.Tick != sp.Tick || want.Seq != sp.Seq || want.Actor != sp.Actor {
			t.Fatalf("sampled span identity drifted: %+v vs %+v", sp, want)
		}
		if !Sampled(99, sp.Tick, sp.Seq, 4) {
			t.Fatalf("span %d not selected by the pure sampler", sp.ID())
		}
	}
}

func TestSectionSpans(t *testing.T) {
	var buf bytes.Buffer
	tr, err := New(&buf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.BindClock(func() int64 { return 5e9 })

	sec := tr.StartSection()
	if sec == nil {
		t.Fatal("1/1 sampler dropped the section")
	}
	sec.End(30*time.Microsecond, 100*time.Microsecond, 24)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	spans := collect(t, buf.Bytes())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want section + plan", len(spans))
	}
	section := spans[0]
	if section.Kind != KindSection || section.Seq != 0 || section.Value != 24 {
		t.Fatalf("section wrong: %+v", section)
	}
	if len(section.Stages) != 1 || section.Stages[0].Stage != StageApply || section.Stages[0].Ns != int64(100*time.Microsecond) {
		t.Fatalf("section apply stage wrong: %+v", section.Stages)
	}
	plan := spans[1]
	if plan.Kind != KindPlan || plan.Shard != 0 || plan.Seq != 1 || plan.Parent != section.ID() {
		t.Fatalf("plan child wrong: %+v", plan)
	}
	if plan.Wall != int64(30*time.Microsecond) || plan.Value != 24 || plan.Start != section.Start {
		t.Fatalf("plan child payload wrong: %+v", plan)
	}
}

// TestSectionSeqReservation: unsampled sections still consume their
// sequence numbers, so a following span's identity doesn't depend on
// the sample rate.
func TestSectionSeqReservation(t *testing.T) {
	var buf bytes.Buffer
	// sampleN huge → effectively nothing sampled directly.
	tr, err := New(&buf, 3, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	tr.BindClock(func() int64 { return 7e9 })
	if sec := tr.StartSection(); sec != nil {
		sec.End(0, 0, 0)
	}
	// Parented instants always emit; its Seq proves the reservation.
	tr.Instant(KindRetry, 1, 0, 0, 12345, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans := collect(t, buf.Bytes())
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	// Section took seq 0, its plan child 1, so the instant is 2.
	if spans[0].Seq != 2 {
		t.Fatalf("instant seq = %d, want 2 (section must reserve its child's seq)", spans[0].Seq)
	}
}

func TestTracerStickyWriteError(t *testing.T) {
	tr, err := New(&failAfter{n: 1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.BindClock(func() int64 { return 0 })
	// Overflow the 64 KiB buffer twice so the failing sink is hit after
	// its one allowed write.
	for i := 0; i < 20000 && tr.Err() == nil; i++ {
		a := tr.StartRequest(KindRequest, 1, 0)
		a.Stage(StageApply, VerdictOK)
		a.End(0, 0, 0, 0)
	}
	if tr.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if tr.Close() == nil {
		t.Fatal("Close swallowed the sticky error")
	}
}

// failAfter is an io.Writer that fails every write after the first n.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n > 0 {
		f.n--
		return len(p), nil
	}
	return 0, io.ErrClosedPipe
}

func TestStatsAggregation(t *testing.T) {
	var buf bytes.Buffer
	tr, err := New(&buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tick := int64(epochNanos)
	tr.BindClock(func() int64 { return tick })

	a := tr.StartRequest(KindRequest, 10, 1) // follow
	a.Stage(StagePreflight, VerdictOK)
	a.Stage(StageRateLimit, VerdictDenied)
	a.End(2, 20, 0, 100)                     // ratelimited
	b := tr.StartRequest(KindRequest, 11, 0) // like
	b.Stage(StageApply, VerdictOK)
	b.End(0, 21, 0, 100) // allowed
	tr.Instant(KindBreaker, 11, 0, BreakerOpened, 0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStats()
	if err := st.ObserveAll(r); err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.ByKind[KindRequest] != 2 || st.ByKind[KindBreaker] != 1 {
		t.Fatalf("kind counts wrong: %+v", st.ByKind)
	}
	if st.outcomes[2] != 1 || st.outcomes[0] != 1 {
		t.Fatalf("outcome counts wrong: %+v", st.outcomes)
	}
	if st.terminal[[2]uint8{uint8(StageRateLimit), VerdictDenied}] != 1 {
		t.Fatalf("terminal attribution wrong: %+v", st.terminal)
	}
	out := st.Format()
	for _, want := range []string{"ratelimit", "denied", "follow", "breaker"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFilterMatch(t *testing.T) {
	sp := &Span{Tick: epochNanos + 3*int64(24*time.Hour), Kind: KindRequest, Action: 1, Code: 2, Actor: 42}
	if !MatchAll.Match(sp) {
		t.Fatal("MatchAll rejected a span")
	}
	f := MatchAll
	f.Actor = 42
	f.Day = 3
	f.Action = 1
	f.Outcome = 2
	f.Kind = int(KindRequest)
	if !f.Match(sp) {
		t.Fatal("exact filter rejected its span")
	}
	f.Day = 2
	if f.Match(sp) {
		t.Fatal("day filter passed the wrong day")
	}
}

func TestExportChrome(t *testing.T) {
	var buf bytes.Buffer
	tr, err := New(&buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.BindClock(func() int64 { return 0 })
	a := tr.StartRequest(KindRequest, 1, 0)
	a.Stage(StageApply, VerdictOK)
	a.End(0, 3, 0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Traces written while plan phases ran on several shards carry the
	// shard index in Shard; the export keeps it as the track.
	var old bytes.Buffer
	w, err := NewWriter(&old, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSpan(&Span{Kind: KindPlan, Shard: 2, Seq: 3, Parent: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, stream := range [][]byte{buf.Bytes(), old.Bytes()} {
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if err := ExportChrome(&out, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{`"traceEvents":[`, `"ph":"X"`, `"tid":0`, `"tid":2`, `request like`, `"apply"`, `"plan"`} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("chrome export missing %q:\n%s", want, out.String())
		}
	}
}
