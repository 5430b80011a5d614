package step

import (
	"testing"

	"footsteps/internal/telemetry"
)

// Steady-state allocation budget for the tick hot path, enforced by
// TestAllocBudgetRunInto below. The budget counts allocations per RunInto
// call (one simulated tick section) with a warm reusable Buffer. Raise it
// only with a profile showing why — see docs/PERFORMANCE.md.
//
// A warm Buffer caches both the intent slice and the emit closure, so a
// section allocates nothing.
const allocBudgetRunInto = 0

// TestAllocBudgetRunInto pins the per-tick allocation count of the
// plan/apply cycle when the caller supplies a warm Buffer, on an engine
// with a phase word and live counters.
func TestAllocBudgetRunInto(t *testing.T) {
	const actors = 8
	e := NewEngine(new(Phase), telemetry.NewRegistry(), nil)
	var b Buffer[int]
	sum := 0
	plan := func(i int, emit func(int)) {
		for k := 0; k < 16; k++ {
			emit(i*16 + k)
		}
	}
	apply := func(v int) { sum += v }
	// Warm the buffer to its steady capacity.
	RunInto(e, &b, actors, plan, apply)
	got := testing.AllocsPerRun(100, func() {
		RunInto(e, &b, actors, plan, apply)
	})
	if got > allocBudgetRunInto {
		t.Errorf("step.RunInto allocates %.1f per tick over %d actors with a warm buffer, budget %d — the reused intent slice or cached emit closure regressed",
			got, actors, allocBudgetRunInto)
	}
	if sum == 0 {
		t.Fatal("apply never ran; measurement is vacuous")
	}
}
