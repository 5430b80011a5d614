package detection

import (
	"testing"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/platform"
)

// allocBudgetAppendActiveDays pins the per-account active-days query the
// report generators run thousands of times: with a warm caller buffer it
// must not allocate. Raise only with a profile — see docs/PERFORMANCE.md.
const allocBudgetAppendActiveDays = 0

// allocBudgetSameDayTally pins the Observe hot path's day-vector bump:
// once a day's DayCounts entry exists, further tallies on that day are
// in-place increments of the compact vector — no map lookups, no
// per-day heap objects.
const allocBudgetSameDayTally = 0

// allocBudgetTrackerObserve pins the tracker's per-event fold: once an
// account has its row, the day its tally entry and the post its like
// count, an attributed event is a fingerprint probe, two row lookups and
// in-place increments.
const allocBudgetTrackerObserve = 0

// allocBudgetIPVolumeGuardCheck pins the guard's per-request check:
// once an address has its window, a check hashes one integer key and
// updates the window in place, and a block bumps an existing
// fingerprint tally.
const allocBudgetIPVolumeGuardCheck = 0

func TestAllocBudgetIPVolumeGuardCheck(t *testing.T) {
	g := NewIPVolumeGuard(200)
	at := clock.Epoch.Add(3*clock.Day + time.Hour)
	hot := guardReq("10.0.0.1", "spoof", at)
	capped := guardReq("10.0.0.2", "spoof", at)
	for i := 0; i < 200; i++ {
		g.Check(capped) // fill 10.0.0.2's window
	}
	g.Check(hot)
	g.Check(capped) // warm the throttle tally
	got := testing.AllocsPerRun(50, func() {
		if g.Check(hot).Kind != platform.VerdictAllow || g.Check(capped).Kind != platform.VerdictBlock {
			t.Fatal("warm address verdicts changed")
		}
	})
	if got > allocBudgetIPVolumeGuardCheck {
		t.Errorf("detection.IPVolumeGuard.Check allocates %.1f/op on a warm address, budget %d",
			got, allocBudgetIPVolumeGuardCheck)
	}
}

func TestAllocBudgetTrackerObserve(t *testing.T) {
	tr := newTestTracker()
	at := clock.Epoch.Add(3*clock.Day + time.Hour)
	like := trackedEvent(1, 2, platform.ActionLike, at, 7)
	follow := trackedEvent(1, 3, platform.ActionFollow, at, 0)
	organic := trackedEvent(4, 2, platform.ActionLike, at, 7)
	organic.Client = "mobile-official"
	for _, ev := range []platform.Event{like, follow, organic} {
		tr.Observe(ev) // warm the rows, the day entries and the post tally
	}
	got := testing.AllocsPerRun(100, func() {
		tr.Observe(like)
		tr.Observe(follow)
		tr.Observe(organic)
	})
	if got > allocBudgetTrackerObserve {
		t.Errorf("detection.Tracker.Observe allocates %.1f/op on a warm account and day, budget %d",
			got, allocBudgetTrackerObserve)
	}
	if n := tr.Service("Svc").Actions[platform.ActionLike]; n < 100 {
		t.Fatalf("%d likes tallied; measurement is vacuous", n)
	}
}

func TestAllocBudgetAppendActiveDays(t *testing.T) {
	a := &AccountActivity{}
	for d := 0; d < 30; d += 2 {
		a.AddOutbound(d, platform.ActionLike, 1)
	}
	for d := 1; d < 30; d += 3 {
		a.AddInbound(d, platform.ActionFollow, 1)
	}
	buf := a.AppendActiveDays(nil)
	if len(buf) == 0 {
		t.Fatal("no active days; measurement is vacuous")
	}
	got := testing.AllocsPerRun(100, func() {
		buf = a.AppendActiveDays(buf[:0])
	})
	if got > allocBudgetAppendActiveDays {
		t.Errorf("detection.AccountActivity.AppendActiveDays allocates %.1f/op into a warm buffer, budget %d",
			got, allocBudgetAppendActiveDays)
	}
}

func TestAllocBudgetSameDayTally(t *testing.T) {
	a := &AccountActivity{}
	a.AddOutbound(12, platform.ActionLike, 1) // day entry now exists
	a.AddInbound(12, platform.ActionFollow, 1)
	got := testing.AllocsPerRun(100, func() {
		a.AddOutbound(12, platform.ActionLike, 1)
		a.AddOutbound(12, platform.ActionComment, 1)
		a.AddInbound(12, platform.ActionFollow, 1)
	})
	if got > allocBudgetSameDayTally {
		t.Errorf("same-day tally allocates %.1f/op on a warm day vector, budget %d — the bumpDay hot path regressed",
			got, allocBudgetSameDayTally)
	}
}
