package platform

import (
	"fmt"
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/rng"
	"footsteps/internal/socialgraph"
)

// These tests interleave many live sessions' traffic in a random order —
// the shape of one world tick, where apply replays every actor's intents
// on the world's goroutine — and then check that shared state still
// reconciles exactly with the event log. The platform is single-writer,
// so the interleaving is sequential; what varies is which session acts
// next.

func newConcurrencyPlatform(cfg Config) (*Platform, *netsim.Registry) {
	reg := netsim.NewRegistry()
	reg.Register(10, "res", "USA", netsim.KindResidential)
	sched := clock.NewScheduler(clock.New())
	return New(cfg, socialgraph.New(), reg, sched), reg
}

// TestConcurrentSessionsGraphMatchesEventLog: under a random interleaving
// of many sessions' follow/unfollow traffic, every account's follower and
// following relations must equal what a replay of that account's own
// event sequence predicts.
func TestConcurrentSessionsGraphMatchesEventLog(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.GraphWrites = true
	cfg.PrivateHourlyLimit = 0 // unthrottled: every allowed action lands
	p, reg := newConcurrencyPlatform(cfg)

	const nActors, nTargets, opsPerActor = 8, 5, 200
	targetIDs := make([]AccountID, nTargets)
	for i := range targetIDs {
		id, err := p.RegisterAccount(fmt.Sprintf("tgt%d", i), "pw", Profile{PhotoCount: 1}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		targetIDs[i] = id
	}
	sessions := make([]*Session, nActors)
	for i := range sessions {
		name := fmt.Sprintf("act%d", i)
		if _, err := p.RegisterAccount(name, "pw", Profile{PhotoCount: 1}, "USA"); err != nil {
			t.Fatal(err)
		}
		s, err := p.Login(name, "pw", ClientInfo{IP: reg.Allocate(10)})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	perActor := make(map[AccountID][]Event)
	p.Log().Subscribe(func(ev Event) {
		if ev.Type == ActionFollow || ev.Type == ActionUnfollow {
			perActor[ev.Actor] = append(perActor[ev.Actor], ev)
		}
	})

	order := rng.New(1)
	for k := 0; k < nActors*opsPerActor; k++ {
		sess := sessions[order.Intn(nActors)]
		tgt := targetIDs[order.Intn(len(targetIDs))]
		if order.Bool(0.6) {
			sess.Do(Request{Action: ActionFollow, Target: tgt})
		} else {
			sess.Do(Request{Action: ActionUnfollow, Target: tgt})
		}
	}

	for _, sess := range sessions {
		actor := sess.Account()
		following := make(map[AccountID]bool)
		for _, ev := range perActor[actor] {
			if ev.Outcome != OutcomeAllowed || ev.Duplicate {
				continue
			}
			switch ev.Type {
			case ActionFollow:
				following[ev.Target] = true
			case ActionUnfollow:
				delete(following, ev.Target)
			}
		}
		for _, tgt := range targetIDs {
			if got := p.Graph().Follows(actor, tgt); got != following[tgt] {
				t.Errorf("actor %d → target %d: graph says %v, event replay says %v",
					actor, tgt, got, following[tgt])
			}
		}
		if got := p.Graph().OutDegree(actor); got != len(following) {
			t.Errorf("actor %d: out-degree %d, replay predicts %d", actor, got, len(following))
		}
	}
	for _, tgt := range targetIDs {
		want := 0
		for _, sess := range sessions {
			if p.Graph().Follows(sess.Account(), tgt) {
				want++
			}
		}
		if got := p.Graph().InDegree(tgt); got != want {
			t.Errorf("target %d: in-degree %d, edge census says %d", tgt, got, want)
		}
	}
}

// TestConcurrentRateLimitAccountingStaysInBounds: with many interleaved
// sessions hammering a small hourly budget, the limiter's buckets must
// never go negative or exceed the limit, and every account must land
// exactly the budget's worth of allowed actions in the log — no more,
// and, with far more attempts than budget, no fewer.
func TestConcurrentRateLimitAccountingStaysInBounds(t *testing.T) {
	t.Parallel()
	const limit = 25
	cfg := DefaultConfig()
	cfg.GraphWrites = true
	cfg.PrivateHourlyLimit = limit
	p, reg := newConcurrencyPlatform(cfg)

	tgt, err := p.RegisterAccount("victim", "pw", Profile{PhotoCount: 2}, "USA")
	if err != nil {
		t.Fatal(err)
	}
	pid, ok := p.LatestPost(tgt)
	if !ok {
		t.Fatal("victim has no post")
	}

	const nActors, opsPerActor = 6, 100
	sessions := make([]*Session, nActors)
	for i := range sessions {
		name := fmt.Sprintf("spam%d", i)
		if _, err := p.RegisterAccount(name, "pw", Profile{PhotoCount: 1}, "USA"); err != nil {
			t.Fatal(err)
		}
		s, err := p.Login(name, "pw", ClientInfo{IP: reg.Allocate(10)})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	allowedCount := make(map[AccountID]int)
	p.Log().Subscribe(func(ev Event) {
		if ev.Outcome == OutcomeAllowed && !ev.Enforcement {
			allowedCount[ev.Actor]++
		}
	})

	order := rng.New(99)
	for k := 0; k < nActors*opsPerActor; k++ {
		sess := sessions[order.Intn(nActors)]
		switch order.Intn(3) {
		case 0:
			sess.Do(Request{Action: ActionLike, Post: pid})
		case 1:
			sess.Do(Request{Action: ActionFollow, Target: tgt})
		default:
			sess.Do(Request{Action: ActionUnfollow, Target: tgt})
		}
		for r, hour := range p.limiter.hours {
			if n := p.limiter.counts[r]; hour != 0 && (n < 0 || int(n) > limit) {
				t.Fatalf("op %d: limiter bucket for account %d holds %d, want within [0, %d]", k, r+1, n, limit)
			}
		}
	}

	for _, sess := range sessions {
		if n := allowedCount[sess.Account()]; n != limit {
			t.Errorf("account %d landed %d allowed actions, budget is %d", sess.Account(), n, limit)
		}
	}
}
