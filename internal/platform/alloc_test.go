package platform

import (
	"testing"
	"time"
)

// Steady-state allocation budgets for the request pipeline, enforced by
// TestAllocBudgetDo. "Steady state" means the account, session, hashtag
// ring, and limiter window already exist — the regime every tick after
// the first runs in. Budgets are allocations per operation as reported
// by testing.AllocsPerRun; raise one only with a profile showing why
// (see docs/PERFORMANCE.md).
const (
	allocBudgetDoDuplicateLike = 0 // Platform.Do: re-like of an already-liked post
	allocBudgetDoFollowPair    = 0 // Platform.Do: follow+unfollow round trip, per pair
	allocBudgetDoComment       = 1 // Platform.Do: comment (graph appends the comment record)
	allocBudgetAppendRecent    = 0 // Platform.AppendRecentByTag into a warm buffer
	allocBudgetLimiterAllow    = 0 // hourlyLimiter.allow on a grown table, incl. hour rollover
)

// allocWorld is a minimal steady-state world: two accounts, a live
// session each, one seed post, one indexed hashtag.
func allocWorld(t *testing.T) (w *testWorld, alice AccountID, sa, sb *Session, pid PostID) {
	t.Helper()
	w = newWorld(t, DefaultConfig())
	alice = w.register(t, "alice")
	w.register(t, "bob")
	sa = w.login(t, "alice", 10)
	sb = w.login(t, "bob", 10)
	var ok bool
	pid, ok = w.p.LatestPost(alice)
	if !ok {
		t.Fatal("alice has no seed post")
	}
	return w, alice, sa, sb, pid
}

// TestAllocBudgetDo pins the per-operation allocation count of the
// Platform.Do steady-state paths. A failure names the function that
// regressed; before raising a budget, profile the path (go test -run
// TestAllocBudgetDo -memprofile) and record the reason in
// docs/PERFORMANCE.md.
func TestAllocBudgetDo(t *testing.T) {
	t.Run("duplicate-like", func(t *testing.T) {
		_, _, _, sb, pid := allocWorld(t)
		if resp := sb.Do(Request{Action: ActionLike, Post: pid}); resp.Err != nil {
			t.Fatalf("seed like failed: %v", resp.Err)
		}
		got := testing.AllocsPerRun(100, func() {
			sb.Do(Request{Action: ActionLike, Post: pid})
		})
		if got > allocBudgetDoDuplicateLike {
			t.Errorf("Platform.Do(ActionLike, duplicate) allocates %.1f/op, budget %d — the steady-state like path regressed",
				got, allocBudgetDoDuplicateLike)
		}
	})

	t.Run("follow-unfollow-pair", func(t *testing.T) {
		_, alice, _, sb, _ := allocWorld(t)
		// Warm the graph's adjacency buckets.
		sb.Do(Request{Action: ActionFollow, Target: alice})
		sb.Do(Request{Action: ActionUnfollow, Target: alice})
		got := testing.AllocsPerRun(100, func() {
			sb.Do(Request{Action: ActionFollow, Target: alice})
			sb.Do(Request{Action: ActionUnfollow, Target: alice})
		})
		if got > allocBudgetDoFollowPair {
			t.Errorf("Platform.Do follow+unfollow pair allocates %.1f/op, budget %d — the steady-state follow path regressed",
				got, allocBudgetDoFollowPair)
		}
	})

	t.Run("comment", func(t *testing.T) {
		_, _, _, sb, pid := allocWorld(t)
		sb.Do(Request{Action: ActionComment, Post: pid, Text: "nice!"})
		got := testing.AllocsPerRun(100, func() {
			sb.Do(Request{Action: ActionComment, Post: pid, Text: "nice!"})
		})
		if got > allocBudgetDoComment {
			t.Errorf("Platform.Do(ActionComment) allocates %.1f/op, budget %d — the steady-state comment path regressed",
				got, allocBudgetDoComment)
		}
	})
}

// TestAllocBudgetAppendRecentByTag pins the hashtag candidate query that
// feeds reciprocity planning: with a warm caller-provided buffer it must
// not allocate.
func TestAllocBudgetAppendRecentByTag(t *testing.T) {
	w, _, sa, _, _ := allocWorld(t)
	resp := sa.Do(Request{Action: ActionPost, Tags: []string{"l4l"}})
	if resp.Err != nil {
		t.Fatalf("tagged post failed: %v", resp.Err)
	}
	buf := w.p.AppendRecentByTag(nil, "l4l", 64)
	if len(buf) == 0 {
		t.Fatal("hashtag index empty; query is vacuous")
	}
	got := testing.AllocsPerRun(100, func() {
		buf = w.p.AppendRecentByTag(buf[:0], "l4l", 64)
	})
	if got > allocBudgetAppendRecent {
		t.Errorf("Platform.AppendRecentByTag allocates %.1f/op into a warm buffer, budget %d",
			got, allocBudgetAppendRecent)
	}
}

// TestAllocBudgetHourlyLimiter pins the rate-limit check on the tick
// hot path: once the dense table covers a row, allow must not allocate
// — including at hour rollover, where the epoch-marked bucket is reset
// in place rather than reallocated (the map[AccountID]*window layout
// this replaced minted a heap object per account per hour).
func TestAllocBudgetHourlyLimiter(t *testing.T) {
	var l hourlyLimiter
	const rows = 1024
	l.ensure(rows - 1)
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	hour := 0
	got := testing.AllocsPerRun(100, func() {
		at := base.Add(time.Duration(hour) * time.Hour) // new bucket every run
		hour++
		for r := uint32(0); r < rows; r++ {
			l.allow(r, at, 30)
		}
	})
	if got > allocBudgetLimiterAllow {
		t.Errorf("hourlyLimiter.allow allocates %.1f per %d-row sweep, budget %d — the dense-table limiter regressed",
			got, rows, allocBudgetLimiterAllow)
	}
}
