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

// allocBudgetAddMembers bounds the allocations per member when
// AddMembers builds a batch: a batch's rows, credentials, photo lists
// and ID lists are a handful of allocations whatever its size, and no
// member gets a heap object of its own — no username, password, posts
// slice, member record or RNG stream. About 0.03 is measured without a
// Grow, the tables growing by append; one object per member would read
// above 1.
const allocBudgetAddMembers = 0.1

func TestAllocBudgetSubscriberNonMember(t *testing.T) {
	w := newWorld(t, 1)
	before := w.actor(t, "ext-before", platform.Profile{})
	w.pop.AddMembers(20)
	after := w.actor(t, "ext-after", platform.Profile{})
	w.pop.Wire()

	inRows, pastRows := before.Account(), after.Account()
	if uint64(inRows) >= uint64(len(w.pop.rowOf)) || uint64(pastRows) < uint64(len(w.pop.rowOf)) {
		t.Fatalf("accounts %d and %d do not straddle the %d member rows; measurement is vacuous",
			inRows, pastRows, len(w.pop.rowOf))
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

func TestAllocBudgetAddMembers(t *testing.T) {
	if raceEnabled {
		t.Skip("table growth allocates under the race detector")
	}
	w := newWorld(t, 1)
	const batch = 2000
	got := testing.AllocsPerRun(2, func() { w.pop.AddMembers(batch) }) / batch
	if w.pop.Size() != 3*batch {
		t.Fatalf("population holds %d members after three batches of %d", w.pop.Size(), batch)
	}
	t.Logf("AddMembers: %.3f allocations per member", got)
	if got > allocBudgetAddMembers {
		t.Errorf("behavior.Population.AddMembers allocates %.2f per member, budget %.2f",
			got, allocBudgetAddMembers)
	}
}
