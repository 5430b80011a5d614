package aas

import (
	"footsteps/internal/platform"
	"footsteps/internal/step"
)

// plannedOp is one intended platform action for a customer, produced by
// the hourly planning phase and executed during the serial apply.
type plannedOp struct {
	c      *Customer
	action platform.ActionType
	target platform.AccountID
	post   platform.PostID
}

// lifeOp is one customer's planned daily lifecycle outcome: renewal,
// churn, and the human's own home login/post. Fields a service does not
// model simply stay false.
type lifeOp struct {
	c     *Customer
	renew bool
	churn bool
	login bool
	post  bool
}

// runSection runs one plan/apply section over actors on the engine:
// plan is called for each customer in order and must only read shared
// state and draw from the customer's own forked stream; apply receives
// the emitted intents in emission order and is the only place shared
// state mutates.
//
// b, when non-nil, supplies a reused intent buffer; reuse is invisible
// to plan and apply (see step.RunInto).
func runSection[T any](e *step.Engine, b *step.Buffer[T], actors []*Customer, plan func(c *Customer, emit func(T)), apply func(T)) {
	step.RunInto(e, b, len(actors), func(i int, emit func(T)) { plan(actors[i], emit) }, apply)
}
