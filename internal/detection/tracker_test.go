package detection

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
)

// refAccount is the reference fold's per-account aggregate: nested maps,
// the shape the tracker's compact rows replace.
type refAccount struct {
	daily, inbound map[int]map[platform.ActionType]int
	postLikes      map[platform.PostID]int
	peak           int
	curHour        int64
	curPost        platform.PostID
	curCount       int
}

// refService is the reference fold's per-label aggregate.
type refService struct {
	accounts map[platform.AccountID]*refAccount
	order    []platform.AccountID // first-seen order
	actions  map[platform.ActionType]int
	targets  map[platform.AccountID]bool
	asns     map[netsim.ASN]bool
}

// refTracker folds events the naive way: a map probe per lookup, days by
// time.Sub, a map-backed target set capped at targetCap entries.
type refTracker struct {
	labels   map[string]string // fingerprint → label
	start    time.Time
	services map[string]*refService
}

func (r *refTracker) account(s *refService, id platform.AccountID) *refAccount {
	a := s.accounts[id]
	if a == nil {
		a = &refAccount{
			daily:     make(map[int]map[platform.ActionType]int),
			inbound:   make(map[int]map[platform.ActionType]int),
			postLikes: make(map[platform.PostID]int),
		}
		s.accounts[id] = a
		s.order = append(s.order, id)
	}
	return a
}

func bump(m map[int]map[platform.ActionType]int, day int, t platform.ActionType) {
	if m[day] == nil {
		m[day] = make(map[platform.ActionType]int)
	}
	m[day][t]++
}

func (r *refTracker) observe(ev platform.Event) {
	if ev.Outcome != platform.OutcomeAllowed || ev.Enforcement || ev.Duplicate {
		return
	}
	label, ok := r.labels[ev.Client]
	if !ok {
		return
	}
	s := r.services[label]
	if s == nil {
		s = &refService{
			accounts: make(map[platform.AccountID]*refAccount),
			actions:  make(map[platform.ActionType]int),
			targets:  make(map[platform.AccountID]bool),
			asns:     make(map[netsim.ASN]bool),
		}
		r.services[label] = s
	}
	s.asns[ev.ASN] = true
	if ev.Type == platform.ActionLogin {
		r.account(s, ev.Actor)
		return
	}
	day := int(ev.Time.Sub(r.start) / clock.Day)
	s.actions[ev.Type]++
	bump(r.account(s, ev.Actor).daily, day, ev.Type)
	if ev.Target == 0 || ev.Target == ev.Actor {
		return
	}
	if len(s.targets) < targetCap {
		s.targets[ev.Target] = true
	}
	tgt := r.account(s, ev.Target)
	bump(tgt.inbound, day, ev.Type)
	if ev.Type == platform.ActionLike {
		tgt.postLikes[ev.Post]++
		hour := ev.Time.Unix() / 3600
		if tgt.curHour != hour || tgt.curPost != ev.Post {
			tgt.curHour, tgt.curPost, tgt.curCount = hour, ev.Post, 0
		}
		tgt.curCount++
		tgt.peak = max(tgt.peak, tgt.curCount)
	}
}

// foldStream generates the differential test's event stream: a mixed
// prefix covering logins, duplicates, enforcement, refused outcomes,
// self-targets, unknown fingerprints, times before the window and out
// of day order, like bursts within an hour; then one service reaching
// more than targetCap distinct targets.
func foldStream(start time.Time) []platform.Event {
	r := rand.New(rand.NewPCG(1, 2))
	clients := []string{"fpA1", "fpA2", "fpB", "mobile-official", "unknown-bot"}
	types := []platform.ActionType{
		platform.ActionLike, platform.ActionFollow, platform.ActionUnfollow,
		platform.ActionComment, platform.ActionPost, platform.ActionLogin,
	}
	outcomes := []platform.Outcome{platform.OutcomeAllowed, platform.OutcomeBlocked, platform.OutcomeRateLimited, platform.OutcomeFailed}
	var evs []platform.Event
	at := start.Add(-36 * time.Hour)
	for i := 0; i < 20000; i++ {
		switch r.IntN(50) {
		case 0: // jump back: an earlier day
			at = at.Add(-time.Duration(r.IntN(5*24)) * time.Hour)
		case 1: // jump forward, landing off the second
			at = at.Add(time.Duration(r.Int64N(int64(3 * clock.Day))))
		default:
			at = at.Add(time.Duration(r.IntN(90)) * time.Second)
		}
		ev := platform.Event{
			Time:    at,
			Type:    types[r.IntN(len(types))],
			Actor:   platform.AccountID(1 + r.IntN(400)),
			Post:    platform.PostID(1 + r.IntN(6)),
			ASN:     netsim.ASN(1 + r.IntN(4)),
			Client:  clients[r.IntN(len(clients))],
			Outcome: platform.OutcomeAllowed,
		}
		switch k := r.IntN(10); {
		case k < 6:
			ev.Target = platform.AccountID(1 + r.IntN(900))
		case k < 8:
			ev.Target = ev.Actor // self-target
		}
		if r.IntN(8) == 0 {
			ev.Outcome = outcomes[1+r.IntN(len(outcomes)-1)]
		}
		ev.Enforcement = r.IntN(20) == 0
		ev.Duplicate = r.IntN(20) == 0
		evs = append(evs, ev)
		if ev.Type == platform.ActionLike && r.IntN(10) == 0 {
			// A burst on one post inside the hour, for the hourly peak.
			for j := 0; j < 1+r.IntN(30); j++ {
				b := ev
				b.Actor = platform.AccountID(1 + r.IntN(400))
				b.Time = ev.Time.Add(time.Duration(j) * time.Second)
				evs = append(evs, b)
			}
		}
	}
	for i := 0; i < targetCap+500; i++ {
		at = at.Add(time.Second)
		evs = append(evs, platform.Event{
			Time: at, Type: platform.ActionFollow,
			Actor: platform.AccountID(1 + i%50), Target: platform.AccountID(1000 + i),
			ASN: 3, Client: "fpB", Outcome: platform.OutcomeAllowed,
		})
	}
	return evs
}

// daysOf flattens a day vector into the reference's nested-map shape,
// checking it is sorted by strictly ascending day.
func daysOf(t *testing.T, what string, dcs []DayCounts) map[int]map[platform.ActionType]int {
	t.Helper()
	out := make(map[int]map[platform.ActionType]int)
	for i, dc := range dcs {
		if i > 0 && dcs[i-1].Day >= dc.Day {
			t.Fatalf("%s: days %d, %d out of order", what, dcs[i-1].Day, dc.Day)
		}
		for typ, n := range dc.N {
			if n != 0 {
				if out[int(dc.Day)] == nil {
					out[int(dc.Day)] = make(map[platform.ActionType]int)
				}
				out[int(dc.Day)][platform.ActionType(typ)] = int(n)
			}
		}
	}
	return out
}

func sameDays(a, b map[int]map[platform.ActionType]int) bool {
	if len(a) != len(b) {
		return false
	}
	for d, m := range a {
		o := b[d]
		if len(m) != len(o) {
			return false
		}
		for typ, n := range m {
			if o[typ] != n {
				return false
			}
		}
	}
	return true
}

// TestTrackerMatchesReferenceFold folds one generated stream through the
// tracker and through the naive map-based reference above, and compares
// every aggregate: per-account days in and out, post likes, hourly
// peaks; per-service action tallies, ASNs and the capped target frame.
func TestTrackerMatchesReferenceFold(t *testing.T) {
	t.Parallel()
	start := clock.Epoch.Add(1234567 * time.Nanosecond)
	evs := foldStream(start)
	fold := func() *Tracker {
		c := NewClassifier()
		c.Learn(Signature{Fingerprint: "fpA1", ASN: 1}, "A")
		c.Learn(Signature{Fingerprint: "fpB", ASN: 3}, "B")
		c.Learn(Signature{Fingerprint: "fpA2", ASN: 2}, "A")
		tr := NewTracker(c, start)
		for _, ev := range evs {
			tr.Observe(ev)
		}
		return tr
	}
	tr := fold()
	ref := &refTracker{
		labels:   map[string]string{"fpA1": "A", "fpA2": "A", "fpB": "B"},
		start:    start,
		services: make(map[string]*refService),
	}
	for _, ev := range evs {
		ref.observe(ev)
	}

	if got := tr.Labels(); !slices.Equal(got, []string{"A", "B"}) || len(ref.services) != 2 {
		t.Fatalf("labels %v, reference has %d services", got, len(ref.services))
	}
	for label, rs := range ref.services {
		svc := tr.Service(label)
		if svc.Label != label || svc.Customers() != len(rs.accounts) {
			t.Fatalf("%s: %q with %d customers, reference %d", label, svc.Label, svc.Customers(), len(rs.accounts))
		}
		for typ, n := range svc.Actions {
			if n != rs.actions[platform.ActionType(typ)] {
				t.Errorf("%s: %d %v actions, reference %d", label, n, platform.ActionType(typ), rs.actions[platform.ActionType(typ)])
			}
		}
		if len(svc.ASNs) != len(rs.asns) {
			t.Errorf("%s: ASNs %v, reference %v", label, svc.ASNs, rs.asns)
		}
		for asn := range rs.asns {
			if !svc.ASNs[asn] {
				t.Errorf("%s: ASN %d missing", label, asn)
			}
		}
		if svc.Targets() != len(rs.targets) {
			t.Errorf("%s: %d targets, reference %d", label, svc.Targets(), len(rs.targets))
		}

		order := make([]platform.AccountID, 0, svc.Customers())
		for _, a := range svc.Accounts() {
			order = append(order, a.Account)
			if a.Targeted() != rs.targets[a.Account] {
				t.Errorf("%s: account %d targeted %v, reference %v", label, a.Account, a.Targeted(), rs.targets[a.Account])
			}
		}
		if !slices.Equal(order, rs.order) {
			t.Errorf("%s: accounts not in first-seen order", label)
		}
		for id, ra := range rs.accounts {
			a := svc.Account(id)
			if a == nil || a.Account != id {
				t.Fatalf("%s: account %d has no row", label, id)
			}
			if !sameDays(daysOf(t, "outbound", a.Daily), ra.daily) {
				t.Errorf("%s: account %d outbound days %v, reference %v", label, id, a.Daily, ra.daily)
			}
			if !sameDays(daysOf(t, "inbound", a.InboundDaily), ra.inbound) {
				t.Errorf("%s: account %d inbound days %v, reference %v", label, id, a.InboundDaily, ra.inbound)
			}
			if len(a.postLikes) != len(ra.postLikes) {
				t.Errorf("%s: account %d has %d liked posts, reference %d", label, id, len(a.postLikes), len(ra.postLikes))
			}
			for pid, n := range ra.postLikes {
				if got := a.PostLikeCount(pid); got != n {
					t.Errorf("%s: account %d post %d has %d likes, reference %d", label, id, pid, got, n)
				}
			}
			if a.PeakHourlyLike != ra.peak {
				t.Errorf("%s: account %d hourly peak %d, reference %d", label, id, a.PeakHourlyLike, ra.peak)
			}
		}
		if label == "B" && svc.Targets() != targetCap {
			t.Errorf("B: target frame holds %d, want the cap %d", svc.Targets(), targetCap)
		}
	}
	if a := tr.Service("A"); a.Account(0) != nil || a.Account(1<<40) != nil {
		t.Error("lookup outside the rows found an account")
	}

	// Iteration order is a function of the stream alone.
	again := fold()
	for _, label := range tr.Labels() {
		x, y := tr.Service(label).Accounts(), again.Service(label).Accounts()
		if len(x) != len(y) {
			t.Fatalf("%s: %d accounts, then %d", label, len(x), len(y))
		}
		for i := range x {
			if x[i].Account != y[i].Account {
				t.Fatalf("%s: iteration differs at %d: %d, then %d", label, i, x[i].Account, y[i].Account)
			}
		}
	}
}

// TestTrackerDayMatchesSub pins Day to the Duration quotient it replaces,
// truncation toward zero before the window start included.
func TestTrackerDayMatchesSub(t *testing.T) {
	t.Parallel()
	start := clock.Epoch.Add(987654321)
	tr := NewTracker(NewClassifier(), start)
	for _, d := range []time.Duration{
		0, 1, -1, clock.Day - 1, clock.Day, -clock.Day + 1, -clock.Day, -clock.Day - 1,
		36 * time.Hour, -36 * time.Hour, 400 * clock.Day, -400*clock.Day + 7,
	} {
		at := start.Add(d)
		if got, want := tr.Day(at), int(at.Sub(start)/clock.Day); got != want {
			t.Errorf("Day(start%+v) = %d, want %d", d, got, want)
		}
	}
}
