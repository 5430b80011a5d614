package behavior

import (
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/platform"
)

// allocBudgetSubscriberNonMember pins the population's event subscriber
// on the events it ignores, likes and follows between accounts outside
// the population: a row lookup by ID, no map probe, no allocation.
const allocBudgetSubscriberNonMember = 0

func TestAllocBudgetSubscriberNonMember(t *testing.T) {
	w := newWorld(t, 1)
	before := w.actor(t, "ext-before", platform.Profile{})
	w.pop.AddMembers(20)
	after := w.actor(t, "ext-after", platform.Profile{})
	w.pop.Wire()

	inRows, pastRows := before.Account(), after.Account()
	if uint64(inRows) >= uint64(len(w.pop.members)) || uint64(pastRows) < uint64(len(w.pop.members)) {
		t.Fatalf("accounts %d and %d do not straddle the %d member rows; measurement is vacuous",
			inRows, pastRows, len(w.pop.members))
	}
	at := clock.Epoch
	like := platform.Event{Time: at, Type: platform.ActionLike, Actor: pastRows, Target: inRows, Post: 1, Outcome: platform.OutcomeAllowed}
	follow := platform.Event{Time: at, Type: platform.ActionFollow, Actor: inRows, Target: pastRows, Outcome: platform.OutcomeAllowed}
	log := w.plat.Log()
	got := testing.AllocsPerRun(100, func() {
		log.Emit(like)
		log.Emit(follow)
	})
	if got > allocBudgetSubscriberNonMember {
		t.Errorf("behavior subscriber allocates %.1f/op on non-member events, budget %d",
			got, allocBudgetSubscriberNonMember)
	}
}
