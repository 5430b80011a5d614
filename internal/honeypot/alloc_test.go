package honeypot

import (
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/platform"
)

// allocBudgetMonitorNonHoneypot pins the monitor's event subscriber on
// events neither of whose accounts is a honeypot: two row lookups by
// ID, no map probe, no allocation.
const allocBudgetMonitorNonHoneypot = 0

func TestAllocBudgetMonitorNonHoneypot(t *testing.T) {
	w := newWorld(t, 1)
	register := func(name string) platform.AccountID {
		id, err := w.plat.RegisterAccount(name, "pw", platform.Profile{PhotoCount: 1}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	inRows := register("org-before")
	if _, err := w.fw.CreateBatch(Empty, 3); err != nil {
		t.Fatal(err)
	}
	pastRows := register("org-after")
	if uint64(inRows) >= uint64(len(w.fw.accounts)) || uint64(pastRows) < uint64(len(w.fw.accounts)) {
		t.Fatalf("accounts %d and %d do not straddle the %d honeypot rows; measurement is vacuous",
			inRows, pastRows, len(w.fw.accounts))
	}
	at := clock.Epoch
	like := platform.Event{Time: at, Type: platform.ActionLike, Actor: pastRows, Target: inRows, Post: 1, Outcome: platform.OutcomeAllowed}
	follow := platform.Event{Time: at, Type: platform.ActionFollow, Actor: inRows, Target: pastRows, Outcome: platform.OutcomeAllowed}
	log := w.plat.Log()
	got := testing.AllocsPerRun(100, func() {
		log.Emit(like)
		log.Emit(follow)
	})
	if got > allocBudgetMonitorNonHoneypot {
		t.Errorf("honeypot monitor allocates %.1f/op on events between non-honeypots, budget %d",
			got, allocBudgetMonitorNonHoneypot)
	}
}
