package behavior

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/snaprow"
)

// Snapshot/restore support (see internal/persistence). Member order is
// preserved verbatim: the serialized order is the creation order, the
// order of the member rows, not a sorted one. Members are written
// straight from the population's member records; restore decodes them
// into a Staged population, which Commit installs into a population
// whose construction only reserved the members' IDs (see
// ReserveMembers).

// State is the population section as plain structs: the fixture the
// codec tests and fuzz targets build, written and read through the same
// section code as a live population.
type State struct {
	RNG      rng.State
	NextName int
	Members  []MemberState // in creation order
	General  []platform.AccountID
	Pools    []PoolState    // sorted by label
	Reacted  []ChannelCount // sorted by channel
	// Reactions are the scheduled-but-unfired reciprocal actions, in
	// scheduling order.
	Reactions []ReactionState
}

// MemberState is one organic member, flattened.
type MemberState struct {
	Profile Profile
	Tag     string
	Session platform.SessionState
	RNG     rng.State
}

// PoolState is one curated pool's membership.
type PoolState struct {
	Label string
	IDs   []platform.AccountID
}

// ChannelCount is one reciprocation-channel tally.
type ChannelCount struct {
	Channel string
	N       int
}

// ReactionState is one pending reciprocal action.
type ReactionState struct {
	Member  platform.AccountID
	Actor   platform.AccountID
	Action  platform.ActionType
	Channel string
	Due     time.Time
}

// Header, MemberRows and ReactionRows make the fixture a section source;
// the Load methods and Finish make it a section sink.
func (st *State) Header() State                             { return *st }
func (st *State) MemberRows() snaprow.Rows[MemberState]     { return snaprow.Of(st.Members) }
func (st *State) ReactionRows() snaprow.Rows[ReactionState] { return snaprow.Of(st.Reactions) }
func (st *State) LoadMembers(hint int) func(*MemberState)   { return snaprow.Into(&st.Members)(hint) }
func (st *State) LoadReactions(hint int) func(*ReactionState) {
	return snaprow.Into(&st.Reactions)(hint)
}
func (st *State) Finish(h *State) error {
	h.Members, h.Reactions = st.Members, st.Reactions
	*st = *h
	return nil
}

// Header returns the population's scalars and short lists; the general
// list and pool memberships alias the population's own slices.
func (p *Population) Header() State {
	h := State{RNG: p.rng.State(), NextName: p.nextName, General: p.general}
	for label, ids := range p.pools {
		h.Pools = append(h.Pools, PoolState{Label: label, IDs: ids})
	}
	slices.SortFunc(h.Pools, func(a, b PoolState) int { return cmp.Compare(a.Label, b.Label) })
	for ch, n := range p.Reacted {
		h.Reacted = append(h.Reacted, ChannelCount{Channel: ch, N: n})
	}
	slices.SortFunc(h.Reacted, func(a, b ChannelCount) int { return cmp.Compare(a.Channel, b.Channel) })
	return h
}

// MemberRows yields the members in creation order.
func (p *Population) MemberRows() snaprow.Rows[MemberState] {
	return snaprow.Rows[MemberState]{N: len(p.members), Each: func(yield func(*MemberState)) {
		var ms MemberState
		for i := range p.members {
			m := &p.members[i]
			ms = MemberState{
				Profile: m.profile,
				Tag:     m.tag,
				Session: platform.CaptureSession(m.session),
				RNG:     m.rng.State(),
			}
			yield(&ms)
		}
	}}
}

// ReactionRows yields the pending reciprocal actions in scheduling
// order.
func (p *Population) ReactionRows() snaprow.Rows[ReactionState] {
	n := 0
	for _, e := range p.reactions {
		if !e.done {
			n++
		}
	}
	return snaprow.Rows[ReactionState]{N: n, Each: func(yield func(*ReactionState)) {
		var rs ReactionState
		for _, e := range p.reactions {
			if e.done {
				continue
			}
			rs = ReactionState{Member: e.member, Actor: e.actor, Action: e.action, Channel: e.channel, Due: e.due}
			yield(&rs)
		}
	}}
}

// Staged is a decoded population section, not yet installed. Member
// records, their RNG streams inline, are decoded into the rows Commit
// installs; sessions wait as plain states until Commit binds them to
// the platform.
type Staged struct {
	h         State
	block     []member
	sessions  []stagedSession // members holding a session
	reactions []ReactionState
}

type stagedSession struct {
	i  int // block index
	st platform.SessionState
}

// NewStaged returns an empty staged population section to decode into.
func NewStaged() *Staged { return &Staged{} }

// ReserveSessions makes room for n members holding a session, so that
// loading them does not grow the staged session list by doubling.
// Call it before LoadMembers.
func (s *Staged) ReserveSessions(n int) { s.sessions = slices.Grow(s.sessions, n) }

func (s *Staged) LoadMembers(hint int) func(*MemberState) {
	s.block = make([]member, 0, hint)
	return func(ms *MemberState) {
		s.block = append(s.block, member{profile: ms.Profile, tag: ms.Tag})
		s.block[len(s.block)-1].rng.SetState(ms.RNG)
		if ms.Session.Present {
			s.sessions = append(s.sessions, stagedSession{i: len(s.block) - 1, st: ms.Session})
		}
	}
}

func (s *Staged) LoadReactions(hint int) func(*ReactionState) {
	return snaprow.Into(&s.reactions)(hint)
}

func (s *Staged) Finish(h *State) error {
	if !snaprow.Sorted(h.Pools, func(ps *PoolState) string { return ps.Label }) ||
		!snaprow.Sorted(h.Reacted, func(cc *ChannelCount) string { return cc.Channel }) {
		return fmt.Errorf("behavior: pools or reaction tallies are not sorted")
	}
	s.h = *h
	return nil
}

// Pending returns the staged pending reactions, for RestoreReactions.
func (s *Staged) Pending() []ReactionState { return s.reactions }

// Matches reports whether the staged members are exactly the members
// the population reserved, in order: a restored world's construction
// captured those IDs (the VPN users' target list among them), so a
// snapshot listing any other members cannot be committed.
func (p *Population) Matches(s *Staged) error {
	if len(s.block) != len(p.ids) {
		return fmt.Errorf("behavior: snapshot lists %d members, this config builds %d", len(s.block), len(p.ids))
	}
	for i := range s.block {
		if id := s.block[i].profile.ID; id != p.ids[i] {
			return fmt.Errorf("behavior: member %d listed at position %d, where this config builds member %d", id, i, p.ids[i])
		}
	}
	return nil
}

// Commit installs a staged section that Matches the population: the
// staged rows become the member rows. The pending reactions are
// re-registered separately via RestoreReactions, once the scheduler
// sits at the snapshot instant.
func (p *Population) Commit(s *Staged) {
	p.rng.SetState(s.h.RNG)
	p.nextName = s.h.NextName
	p.general = s.h.General
	clear(p.pools)
	for _, ps := range s.h.Pools {
		p.pools[ps.Label] = ps.IDs
	}
	p.members = s.block
	p.rowOf = p.rowOf[:0]
	tagged := 0
	for i := range p.members {
		m := &p.members[i]
		p.setRow(m.profile.ID, i)
		if m.tag != "" {
			tagged++
		}
	}
	// Each tagged member's one-element Tags payload (see TagPool) is cut
	// from one array, capped so nothing appends into a neighbour's.
	tags := make([]string, tagged)
	for i := range p.members {
		if m := &p.members[i]; m.tag != "" {
			tags[0] = m.tag
			m.tags, tags = tags[:1:1], tags[1:]
		}
	}
	for _, ss := range s.sessions {
		p.members[ss.i].session = p.plat.RestoreSession(ss.st)
	}
	clear(p.Reacted)
	for _, cc := range s.h.Reacted {
		p.Reacted[cc.Channel] = cc.N
	}
}

// RestoreReactions re-registers pending reciprocal actions from a
// snapshot, in their original scheduling order.
func (p *Population) RestoreReactions(sts []ReactionState) {
	p.reactions = p.reactions[:0]
	for _, rs := range sts {
		e := &pendingReaction{
			member: rs.Member, actor: rs.Actor, action: rs.Action,
			channel: rs.Channel, due: rs.Due,
		}
		p.reactions = append(p.reactions, e)
		p.sched.At(e.due, func() { p.fireReaction(e) })
	}
}
