package trace

import (
	"bytes"
	"testing"
)

// allocBudgetReaderNext is Reader.Next's steady-state allocation budget:
// once the payload buffer and the stage slice have grown to span size,
// every span decodes into the reader's reusable Span. Raise it only with
// a profile showing why — see docs/PERFORMANCE.md.
const allocBudgetReaderNext = 0

// TestAllocBudgetTraceReaderNext pins the reader's "alloc-capped" claim
// at zero allocations per span on warm buffers.
func TestAllocBudgetTraceReaderNext(t *testing.T) {
	const n = 256
	r, err := NewReader(bytes.NewReader(sampleStream(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	// The first span grows the payload buffer and the stage slice
	// outside the measured window.
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(n-2, func() {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	})
	if got > allocBudgetReaderNext {
		t.Errorf("trace.Reader.Next allocates %.1f/op in steady state, budget %d — payload or stage reuse regressed",
			got, allocBudgetReaderNext)
	}
}
