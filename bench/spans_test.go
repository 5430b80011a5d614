package main

import (
	"bytes"
	"testing"

	"footsteps/internal/trace"
)

// TestSpanSelfTime checks the self-time arithmetic on a synthetic FTRC1
// stream laid out the way the serial world goroutine writes it: a
// top-level request, then a section whose apply phase issued two
// requests (written before the section), then the section's two plan
// children, then another top-level request.
func TestSpanSelfTime(t *testing.T) {
	spans := []trace.Span{
		{Kind: trace.KindRequest, Start: 0, Wall: 100, Stages: []trace.StageRec{
			{Stage: trace.StagePreflight, Ns: 30}, {Stage: trace.StageApply, Ns: 70}}},
		{Kind: trace.KindRequest, Start: 1100, Wall: 200, Code: 2, Stages: []trace.StageRec{
			{Stage: trace.StageRateLimit, Verdict: trace.VerdictDenied, Ns: 200}}},
		{Kind: trace.KindLogin, Start: 1400, Wall: 300, Stages: []trace.StageRec{
			{Stage: trace.StageEmit, Ns: 300}}},
		{Kind: trace.KindSection, Start: 1000, Wall: 1000, Value: 7,
			Stages: []trace.StageRec{{Stage: trace.StageApply, Ns: 600}}},
		{Kind: trace.KindPlan, Start: 1000, Wall: 150, Parent: 1},
		{Kind: trace.KindPlan, Start: 1000, Wall: 250, Parent: 1, Shard: 1},
		{Kind: trace.KindRetry, Start: 2100, Parent: 9},
		{Kind: trace.KindBreaker, Start: 2100},
		{Kind: trace.KindRequest, Start: 2500, Wall: 50},
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spans {
		if err := w.WriteSpan(&spans[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var a spanAgg
	if err := a.readAll(&buf); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"spans", int64(a.spans), 9},
		{"requests", int64(a.requests), 4},
		{"allowed", int64(a.allowed), 3},
		{"section wall", a.sectionNs, 1000},
		{"plan", a.planNs, 400},
		{"requests inside sections", a.innerNs, 500},
		{"top-level requests", a.topNs, 150},
		{"section self", a.sectionSelfNs(), 100},
		{"intents", a.intents, 7},
		{"preflight", a.stageNs[trace.StagePreflight], 30},
		{"apply stage of requests only", a.stageNs[trace.StageApply], 70},
		{"ratelimit", a.stageNs[trace.StageRateLimit], 200},
		{"emit", a.stageNs[trace.StageEmit], 300},
		{"retries", int64(a.retries), 1},
		{"breakers", int64(a.breakers), 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestLiveTraceDecodesWhileWriting runs a tracer through the pipe the
// traced repetitions use and checks every span arrives.
func TestLiveTraceDecodesWhileWriting(t *testing.T) {
	lt, err := startLiveTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // more than the tracer's 64 KiB buffer holds
	for i := 0; i < n; i++ {
		lt.tr.Instant(trace.KindRetry, uint64(i), 0, 0, 0, 0)
	}
	if err := lt.stop(); err != nil {
		t.Fatal(err)
	}
	if lt.agg.spans != n || lt.agg.retries != n {
		t.Errorf("decoded %d spans, %d retries; want %d", lt.agg.spans, lt.agg.retries, n)
	}
}
