//go:build race

package step

import "sync/atomic"

// phaseWord counts the plan phases in flight; a write while it is
// non-zero breaks the single-writer rule.
type phaseWord struct {
	planning atomic.Int32
}

func (ph *Phase) beginPlan() {
	if ph != nil {
		ph.planning.Add(1)
	}
}

func (ph *Phase) endPlan() {
	if ph != nil {
		ph.planning.Add(-1)
	}
}

// CheckWrite panics if a plan phase is in flight: what names the
// mutator that was called.
func (ph *Phase) CheckWrite(what string) {
	if ph != nil && ph.planning.Load() != 0 {
		panic("step: " + what + " mutated world state during the plan phase")
	}
}
