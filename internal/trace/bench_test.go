package trace

import (
	"io"
	"testing"
)

// BenchmarkRequestSpan measures the steady-state cost of one fully
// staged request span — StartRequest, eight Stage marks, End — into a
// discarded FTRC1 stream. The span and its payload buffer are tracer-
// owned scratch, so the hot path should settle at zero allocations per
// span once the scratch has grown.
func BenchmarkRequestSpan(b *testing.B) {
	tr, err := New(io.Discard, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	tick := int64(0)
	tr.BindClock(func() int64 { return tick })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		sp := tr.StartRequest(KindRequest, 42, 1)
		sp.Stage(StagePreflight, VerdictOK)
		sp.Stage(StageSession, VerdictOK)
		sp.Stage(StageFaults, VerdictOK)
		sp.Stage(StageRateLimit, VerdictOK)
		sp.Stage(StageGatekeep, VerdictOK)
		sp.Stage(StageApply, VerdictOK)
		sp.Stage(StageTelemetry, VerdictOK)
		sp.Stage(StageEmit, VerdictOK)
		sp.End(0, 7, 9, 11)
	}
}

// BenchmarkInstantSpan measures one parented instant span.
func BenchmarkInstantSpan(b *testing.B) {
	tr, err := New(io.Discard, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	tick := int64(0)
	tr.BindClock(func() int64 { return tick })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		tr.Instant(KindRetry, 42, 1, 2, 99, 1000)
	}
}
