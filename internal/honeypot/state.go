package honeypot

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/snaprow"
)

// Snapshot/restore support (see internal/persistence). Account order is
// preserved verbatim — creation order drives reporting — while the
// map-backed monitoring counters are serialized sorted so the encoded
// form is canonical. Restore decodes the section into a Staged framework
// and Commit installs it.

// State is the framework section as plain structs: the fixture the codec
// tests and fuzz targets build, written and read through the same
// section code as a live framework.
type State struct {
	RNG         rng.State
	NextID      int
	HighProfile []platform.AccountID
	Accounts    []AccountState // creation order
}

// AccountState is one honeypot, flattened.
type AccountState struct {
	ID           platform.AccountID
	Username     string
	Password     string
	Kind         Kind
	Created      time.Time
	EnrolledWith string
	Inbound      []TypeCount // sorted by type
	Outbound     []TypeCount // sorted by type
	InboundDedup []ActorCounts
	Enforcements int
	Duplicates   int
	Deleted      bool
}

// TypeCount is one action-type tally.
type TypeCount struct {
	Type platform.ActionType
	N    int
}

// ActorCounts is one distinct actor's inbound tallies.
type ActorCounts struct {
	Actor  platform.AccountID
	Counts []TypeCount // sorted by type
}

// Header and AccountRows make the fixture a section source;
// LoadAccounts and Finish make it a section sink.
func (st *State) Header() State                             { return *st }
func (st *State) AccountRows() snaprow.Rows[AccountState]   { return snaprow.Of(st.Accounts) }
func (st *State) LoadAccounts(hint int) func(*AccountState) { return snaprow.Into(&st.Accounts)(hint) }
func (st *State) Finish(h *State) error {
	h.Accounts = st.Accounts
	*st = *h
	return nil
}

// appendCounts appends c's tallies to dst, sorted by type.
func appendCounts(dst []TypeCount, c Counts) []TypeCount {
	start := len(dst)
	for t, n := range c {
		dst = append(dst, TypeCount{Type: t, N: n})
	}
	slices.SortFunc(dst[start:], func(a, b TypeCount) int { return cmp.Compare(a.Type, b.Type) })
	return dst
}

func unflattenCounts(tcs []TypeCount) Counts {
	c := make(Counts, len(tcs))
	for _, tc := range tcs {
		c[tc.Type] = tc.N
	}
	return c
}

// Header returns the framework's scalars and high-profile list.
func (f *Framework) Header() State {
	return State{RNG: f.rng.State(), NextID: f.nextID, HighProfile: f.highProfile}
}

// AccountRows yields the honeypots in creation order, their counters
// flattened into buffers reused from row to row.
func (f *Framework) AccountRows() snaprow.Rows[AccountState] {
	return snaprow.Rows[AccountState]{N: len(f.ordered), Each: func(yield func(*AccountState)) {
		var as AccountState
		var counts []TypeCount
		var dedup []ActorCounts
		for _, a := range f.ordered {
			counts = appendCounts(counts[:0], a.Inbound)
			nIn := len(counts)
			counts = appendCounts(counts, a.Outbound)
			nOut := len(counts)
			dedup = dedup[:0]
			for actor, c := range a.InboundDedup {
				start := len(counts)
				counts = appendCounts(counts, c)
				dedup = append(dedup, ActorCounts{Actor: actor, Counts: counts[start:len(counts):len(counts)]})
			}
			slices.SortFunc(dedup, func(a, b ActorCounts) int { return cmp.Compare(a.Actor, b.Actor) })
			as = AccountState{
				ID:           a.ID,
				Username:     a.Username,
				Password:     a.Password,
				Kind:         a.Kind,
				Created:      a.Created,
				EnrolledWith: a.EnrolledWith,
				Inbound:      counts[:nIn:nIn],
				Outbound:     counts[nIn:nOut:nOut],
				InboundDedup: dedup,
				Enforcements: a.Enforcements,
				Duplicates:   a.Duplicates,
				Deleted:      a.deleted,
			}
			yield(&as)
		}
	}}
}

// Staged is a decoded framework section, not yet installed.
type Staged struct {
	h        State
	accounts []*Account
	err      error
}

// NewStaged returns an empty staged framework section to decode into.
func NewStaged() *Staged { return &Staged{} }

func (s *Staged) LoadAccounts(hint int) func(*AccountState) {
	s.accounts = make([]*Account, 0, hint)
	return func(as *AccountState) {
		if s.err != nil {
			return
		}
		byType := func(tc *TypeCount) platform.ActionType { return tc.Type }
		sorted := snaprow.Sorted(as.Inbound, byType) && snaprow.Sorted(as.Outbound, byType) &&
			snaprow.Sorted(as.InboundDedup, func(ac *ActorCounts) platform.AccountID { return ac.Actor })
		for _, ac := range as.InboundDedup {
			sorted = sorted && snaprow.Sorted(ac.Counts, byType)
		}
		if !sorted {
			s.err = fmt.Errorf("honeypot: account %d's tallies are not sorted", as.ID)
			return
		}
		a := &Account{
			ID:           as.ID,
			Username:     as.Username,
			Password:     as.Password,
			Kind:         as.Kind,
			Created:      as.Created,
			EnrolledWith: as.EnrolledWith,
			Inbound:      unflattenCounts(as.Inbound),
			Outbound:     unflattenCounts(as.Outbound),
			InboundDedup: make(map[platform.AccountID]Counts, len(as.InboundDedup)),
			Enforcements: as.Enforcements,
			Duplicates:   as.Duplicates,
			deleted:      as.Deleted,
		}
		for _, ac := range as.InboundDedup {
			a.InboundDedup[ac.Actor] = unflattenCounts(ac.Counts)
		}
		s.accounts = append(s.accounts, a)
	}
}

func (s *Staged) Finish(h *State) error {
	s.h = *h
	return s.err
}

// Registered reports an error unless every staged honeypot is one of
// the platform's n accounts: the framework addresses its honeypots by
// account ID.
func (s *Staged) Registered(n int) error {
	for _, a := range s.accounts {
		if a.ID == 0 || uint64(a.ID) > uint64(n) {
			return fmt.Errorf("honeypot: account %d is not among the platform's %d accounts", a.ID, n)
		}
	}
	return nil
}

// Commit installs a staged section whose honeypots are Registered. The
// wired subscription is left alone — Wire runs at construction and the
// subscription closure reads the rows installed here.
func (f *Framework) Commit(s *Staged) {
	f.rng.SetState(s.h.RNG)
	f.nextID = s.h.NextID
	f.highProfile = s.h.HighProfile
	rows := 0
	for _, a := range s.accounts {
		rows = max(rows, int(a.ID)+1)
	}
	f.accounts = make([]*Account, rows)
	f.ordered = s.accounts
	for _, a := range s.accounts {
		f.accounts[a.ID] = a
	}
}
