// Package honeypot implements the instrumented-account framework of §4.1:
// programmatic creation of empty, lived-in, and inactive accounts, full
// monitoring of every action to or from them, attribution of observed
// activity, and deletion that removes all of an account's actions.
//
// Honeypots neither generate nor receive organic actions on their own, so
// everything observed on an enrolled honeypot is attributed to the linked
// AAS; the inactive fleet establishes the zero-activity baseline that
// justifies the attribution (§4.1.3).
package honeypot

import (
	"fmt"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
)

// Kind is the honeypot account type of §4.1.1.
type Kind int

// Account kinds.
const (
	// Empty accounts carry only the minimum required to use every AAS:
	// ten or more themed photos, nothing else.
	Empty Kind = iota
	// LivedIn accounts add a profile picture, biography, and name, and
	// follow 10–20 high-profile accounts at creation.
	LivedIn
	// Inactive accounts are the attribution baseline: never enrolled,
	// never acting, expected to observe zero inbound activity.
	Inactive
)

func (k Kind) String() string {
	switch k {
	case Empty:
		return "empty"
	case LivedIn:
		return "lived-in"
	case Inactive:
		return "inactive"
	default:
		return "unknown"
	}
}

// Counts tallies actions by type.
type Counts map[platform.ActionType]int

// Total sums all entries.
func (c Counts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Account is one managed honeypot.
type Account struct {
	ID       platform.AccountID
	Username string
	Password string
	Kind     Kind
	Created  time.Time

	// EnrolledWith names the AAS this honeypot was registered with, if
	// any. Attribution assigns all observed activity to it.
	EnrolledWith string

	// Monitoring state: everything to and from the account, split by
	// direction. Enforcement events (the platform undoing actions) and
	// duplicate no-ops are tallied separately and excluded from the main
	// counters.
	Inbound      Counts
	Outbound     Counts
	InboundDedup map[platform.AccountID]Counts // per distinct actor
	Enforcements int
	Duplicates   int

	deleted bool
}

// ReciprocationRate returns the rate of distinct inbound actions of the
// given type per outbound action of the driving type — one cell of
// Table 5. Inbound actions are counted once per distinct actor, matching
// the paper's notion of "a user reciprocating".
func (a *Account) ReciprocationRate(outbound, inbound platform.ActionType) float64 {
	out := a.Outbound[outbound]
	if out == 0 {
		return 0
	}
	actors := 0
	for _, counts := range a.InboundDedup {
		if counts[inbound] > 0 {
			actors++
		}
	}
	return float64(actors) / float64(out)
}

// Framework creates and monitors honeypot accounts.
type Framework struct {
	plat  *platform.Platform
	sched *clock.Scheduler
	net   *netsim.Registry
	rng   *rng.RNG

	// accounts addresses the honeypots by account ID: accounts[id] is
	// nil unless id is a honeypot. Account IDs are minted densely from
	// 1, so the monitor's lookups are bounds checks.
	accounts []*Account
	ordered  []*Account

	// highProfile accounts (>1M followers in the paper) that lived-in
	// honeypots follow at creation.
	highProfile []platform.AccountID

	nextID int
	wired  bool
}

// New returns a framework bound to the platform.
func New(plat *platform.Platform, sched *clock.Scheduler, r *rng.RNG) *Framework {
	return &Framework{
		plat:  plat,
		sched: sched,
		net:   plat.Net(),
		rng:   r,
	}
}

// SetHighProfile supplies the celebrity accounts lived-in honeypots follow.
func (f *Framework) SetHighProfile(ids []platform.AccountID) {
	f.highProfile = append([]platform.AccountID(nil), ids...)
}

// Wire subscribes the monitor to the platform's event stream. Call once,
// before any honeypot activity.
func (f *Framework) Wire() {
	if f.wired {
		panic("honeypot: Wire called twice")
	}
	f.wired = true
	f.plat.Log().Subscribe(func(ev platform.Event) {
		if ev.Type == platform.ActionLogin || ev.Outcome != platform.OutcomeAllowed {
			return
		}
		if a := f.row(ev.Actor); a != nil && !a.deleted {
			switch {
			case ev.Enforcement:
				a.Enforcements++
			case ev.Duplicate:
				a.Duplicates++
			default:
				a.Outbound[ev.Type]++
			}
		}
		if a := f.row(ev.Target); a != nil && !a.deleted && ev.Actor != ev.Target {
			switch {
			case ev.Enforcement:
				a.Enforcements++
			case ev.Duplicate:
				a.Duplicates++
			default:
				a.Inbound[ev.Type]++
				per := a.InboundDedup[ev.Actor]
				if per == nil {
					per = make(Counts)
					a.InboundDedup[ev.Actor] = per
				}
				per[ev.Type]++
			}
		}
	})
}

// Create registers one honeypot of the given kind from a residential IP and
// returns it. Lived-in accounts follow 10–20 of the high-profile accounts.
func (f *Framework) Create(kind Kind) (*Account, error) {
	if !f.wired {
		panic("honeypot: Create before Wire — events would be lost")
	}
	f.nextID++
	username := fmt.Sprintf("hp-%s-%d", kind, f.nextID)
	password := "pw-" + username

	prof := platform.Profile{PhotoCount: 10 + f.rng.Intn(5)}
	if kind == LivedIn {
		prof.HasProfilePic = true
		prof.HasBio = true
		prof.HasName = true
	}
	id, err := f.plat.RegisterAccount(username, password, prof, "USA")
	if err != nil {
		return nil, err
	}
	a := &Account{
		ID:           id,
		Username:     username,
		Password:     password,
		Kind:         kind,
		Created:      f.plat.Now(),
		Inbound:      make(Counts),
		Outbound:     make(Counts),
		InboundDedup: make(map[platform.AccountID]Counts),
	}
	if uint64(id) >= uint64(len(f.accounts)) {
		f.accounts = append(f.accounts, make([]*Account, int(id)+1-len(f.accounts))...)
	}
	f.accounts[id] = a
	f.ordered = append(f.ordered, a)

	if kind == LivedIn && len(f.highProfile) > 0 {
		sess, err := f.login(a)
		if err != nil {
			return nil, err
		}
		n := 10 + f.rng.Intn(11) // 10–20
		for _, idx := range f.rng.Sample(len(f.highProfile), n) {
			sess.Do(platform.Request{Action: platform.ActionFollow, Target: f.highProfile[idx]})
		}
		// Creation-time follows of celebrities are setup, not service
		// activity; reset the counters so measurements start clean.
		a.Outbound = make(Counts)
	}
	return a, nil
}

// login opens the honeypot's own session from a diverse residential IP
// (§4.1.2: "a diverse set of commercial and residential IP addresses").
func (f *Framework) login(a *Account) (*platform.Session, error) {
	res := f.net.ByKind(netsim.KindResidential)
	if len(res) == 0 {
		return nil, fmt.Errorf("honeypot: no residential ASNs")
	}
	asn := res[f.rng.Intn(len(res))]
	return f.plat.Login(a.Username, a.Password, platform.ClientInfo{
		IP:          f.net.Allocate(asn),
		Fingerprint: "mobile-official",
		API:         platform.APIPrivate,
	})
}

// CreateBatch creates n honeypots of kind.
func (f *Framework) CreateBatch(kind Kind, n int) ([]*Account, error) {
	out := make([]*Account, 0, n)
	for i := 0; i < n; i++ {
		a, err := f.Create(kind)
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Accounts returns all honeypots in creation order.
func (f *Framework) Accounts() []*Account {
	return append([]*Account(nil), f.ordered...)
}

// Account looks up a honeypot by platform ID.
func (f *Framework) Account(id platform.AccountID) (*Account, bool) {
	a := f.row(id)
	return a, a != nil
}

// row returns id's honeypot, nil when id is not one.
func (f *Framework) row(id platform.AccountID) *Account {
	if uint64(id) < uint64(len(f.accounts)) {
		return f.accounts[id]
	}
	return nil
}

// MarkEnrolled records which AAS the honeypot was registered with.
func (f *Framework) MarkEnrolled(a *Account, service string) { a.EnrolledWith = service }

// Delete removes the honeypot and all of its actions from the platform,
// per the §4.1.1 deletion protocol. Monitoring stops.
func (f *Framework) Delete(a *Account) error {
	if a.deleted {
		return nil
	}
	a.deleted = true
	return f.plat.DeleteAccount(a.ID)
}

// DeleteAll deletes every managed honeypot (the end-of-study cleanup).
func (f *Framework) DeleteAll() error {
	for _, a := range f.ordered {
		if err := f.Delete(a); err != nil {
			return err
		}
	}
	return nil
}

// BaselineQuiet verifies the attribution precondition: every inactive
// honeypot observed zero inbound actions. It returns the offending
// accounts, empty when the baseline is clean (§4.1.3: "we did not observe
// any activity on any of the inactive honeypot accounts").
func (f *Framework) BaselineQuiet() []*Account {
	var noisy []*Account
	for _, a := range f.ordered {
		if a.Kind != Inactive {
			continue
		}
		if a.Inbound.Total() > 0 || a.Outbound.Total() > 0 {
			noisy = append(noisy, a)
		}
	}
	return noisy
}
