package aas

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/snaprow"
)

// Snapshot/restore support (see internal/persistence). Customer order is
// preserved verbatim — enrollment order drives Fork lineage and every
// tick's iteration — while per-type and map-backed state (adaptation,
// totals, delivered tallies) is serialized sorted so the encoded form is
// canonical. Customers are written straight from the engine's records;
// restore decodes them into a staged engine section, which Commit
// installs. Both run on the quiescent single timeline.

// BaseState is the mutable state shared by both engine kinds; with
// ReciprocityState and CollusionState it is the engine section as plain
// structs — the fixture the codec tests and fuzz targets build, written
// and read through the same section code as a live engine.
type BaseState struct {
	RNG           rng.State
	Customers     []CustomerState // enrollment order
	Revenue       float64
	AdImpressions int
	Stopped       bool
	// Retries are the scheduled-but-unfired backoff retries, in
	// scheduling order.
	Retries []RetryState
}

// CustomerState is one enrolled customer, flattened.
type CustomerState struct {
	Account              platform.AccountID
	Username             string
	Password             string
	Country              string
	Managed              bool
	Wants                []Offering
	Hashtags             []string
	EnrolledAt           time.Time
	LongTermIntent       bool
	EngagedUntil         time.Time
	Churned              bool
	PaidThrough          time.Time
	Payments             []Payment
	FirstPaidBeforeStudy bool
	Product              PaidProduct
	Tier                 int
	Session              platform.SessionState
	OwnSession           platform.SessionState
	Adapt                []AdaptState // sorted by action
	RecentFollows        []UnfollowState
	UnfollowAfter        bool
	LastFreeRequest      time.Time
	Totals               []ActionCount // sorted by action
	RNG                  rng.State
	RelRNG               rng.State
	Breaker              BreakerState
}

// AdaptState is one action type's block-detection state.
type AdaptState struct {
	Action       platform.ActionType
	LearnedCap   float64
	TodayCount   int
	TodayBlocked bool
	BlockedUntil time.Time
	ProbeWait    int
}

// UnfollowState is one queued auto-unfollow.
type UnfollowState struct {
	Target platform.AccountID
	Due    time.Time
}

// ActionCount is one action-type tally.
type ActionCount struct {
	Action platform.ActionType
	N      int
}

// BreakerState is a customer's circuit-breaker position.
type BreakerState struct {
	Fails     int
	Tripped   bool
	OpenUntil time.Time
}

// RetryState is one pending backoff retry.
type RetryState struct {
	Customer platform.AccountID
	Action   platform.ActionType
	Target   platform.AccountID
	Post     platform.PostID
	Text     string
	Tags     []string
	Attempt  int
	Due      time.Time
}

// ReciprocityState is the complete mutable state of a ReciprocityService.
type ReciprocityState struct {
	Base         BaseState
	Pool         []platform.AccountID
	AdaptTypes   []platform.ActionType // sorted
	NextAcct     int
	AutomationOn bool
}

// CollusionState is the complete mutable state of a CollusionService.
type CollusionState struct {
	Base               BaseState
	FreeRequestsPerDay float64
	FirstLikeBlock     time.Time
	LikeAdaptOn        bool
	SalesStopped       bool
	NextAcct           int
	AutomationOn       bool
	Delivered          []ActionCount // sorted by action
}

// Header, CustomerRows and RetryRows make the fixtures section sources;
// the Load methods and Finish make them section sinks.
func (st *ReciprocityState) Header() ReciprocityState { return *st }
func (st *CollusionState) Header() CollusionState     { return *st }
func (st *ReciprocityState) CustomerRows() snaprow.Rows[CustomerState] {
	return snaprow.Of(st.Base.Customers)
}
func (st *ReciprocityState) RetryRows() snaprow.Rows[RetryState] { return snaprow.Of(st.Base.Retries) }
func (st *ReciprocityState) LoadCustomers(hint int) func(*CustomerState) {
	return snaprow.Into(&st.Base.Customers)(hint)
}
func (st *ReciprocityState) LoadRetries(hint int) func(*RetryState) {
	return snaprow.Into(&st.Base.Retries)(hint)
}
func (st *CollusionState) CustomerRows() snaprow.Rows[CustomerState] {
	return snaprow.Of(st.Base.Customers)
}
func (st *CollusionState) RetryRows() snaprow.Rows[RetryState] { return snaprow.Of(st.Base.Retries) }
func (st *CollusionState) LoadCustomers(hint int) func(*CustomerState) {
	return snaprow.Into(&st.Base.Customers)(hint)
}
func (st *CollusionState) LoadRetries(hint int) func(*RetryState) {
	return snaprow.Into(&st.Base.Retries)(hint)
}
func (st *ReciprocityState) Finish(h *ReciprocityState) error {
	h.Base.Customers, h.Base.Retries = st.Base.Customers, st.Base.Retries
	*st = *h
	return nil
}
func (st *CollusionState) Finish(h *CollusionState) error {
	h.Base.Customers, h.Base.Retries = st.Base.Customers, st.Base.Retries
	*st = *h
	return nil
}

func (b *base) header() BaseState {
	return BaseState{RNG: b.rng.State(), Revenue: b.Revenue, AdImpressions: b.AdImpressions, Stopped: b.stopped}
}

// CustomerRows yields the customers in enrollment order. Each row's
// lists alias the customer's own, or buffers reused from row to row for
// the per-type and map-backed state.
func (b *base) CustomerRows() snaprow.Rows[CustomerState] {
	return snaprow.Rows[CustomerState]{N: len(b.customers), Each: func(yield func(*CustomerState)) {
		var cs CustomerState
		maxFollows := 0
		for _, c := range b.customers {
			maxFollows = max(maxFollows, len(c.recentFollows))
		}
		adapt := make([]AdaptState, 0, platform.ActionLogin+1)
		follows := make([]UnfollowState, 0, maxFollows)
		totals := make([]ActionCount, 0, platform.ActionLogin+1)
		for _, c := range b.customers {
			adapt = adapt[:0]
			for t, a := range c.adapt {
				if a == nil {
					continue
				}
				adapt = append(adapt, AdaptState{
					Action: platform.ActionType(t), LearnedCap: a.learnedCap, TodayCount: a.todayCount,
					TodayBlocked: a.todayBlocked, BlockedUntil: a.blockedUntil, ProbeWait: a.probeWait,
				})
			}
			follows = follows[:0]
			for _, u := range c.recentFollows {
				follows = append(follows, UnfollowState{Target: u.target, Due: u.due})
			}
			totals = totals[:0]
			for t, n := range c.totals {
				totals = append(totals, ActionCount{Action: t, N: n})
			}
			slices.SortFunc(totals, func(a, b ActionCount) int { return cmp.Compare(a.Action, b.Action) })
			cs = CustomerState{
				Account:              c.Account,
				Username:             c.Username,
				Password:             c.Password,
				Country:              c.Country,
				Managed:              c.Managed,
				Wants:                c.Wants,
				Hashtags:             c.Hashtags,
				EnrolledAt:           c.EnrolledAt,
				LongTermIntent:       c.LongTermIntent,
				EngagedUntil:         c.EngagedUntil,
				Churned:              c.Churned,
				PaidThrough:          c.PaidThrough,
				Payments:             c.Payments,
				FirstPaidBeforeStudy: c.FirstPaidBeforeStudy,
				Product:              c.Product,
				Tier:                 c.Tier,
				Session:              platform.CaptureSession(c.session),
				OwnSession:           platform.CaptureSession(c.ownSession),
				Adapt:                adapt,
				RecentFollows:        follows,
				UnfollowAfter:        c.unfollowAfter,
				LastFreeRequest:      c.lastFreeRequest,
				Totals:               totals,
				RNG:                  c.rng.State(),
				RelRNG:               c.relRNG.State(),
				Breaker:              BreakerState{Fails: c.br.fails, Tripped: c.br.tripped, OpenUntil: c.br.openUntil},
			}
			yield(&cs)
		}
	}}
}

// RetryRows yields the pending backoff retries in scheduling order.
func (b *base) RetryRows() snaprow.Rows[RetryState] {
	n := 0
	for _, e := range b.retries {
		if !e.done {
			n++
		}
	}
	return snaprow.Rows[RetryState]{N: n, Each: func(yield func(*RetryState)) {
		var rs RetryState
		for _, e := range b.retries {
			if e.done {
				continue
			}
			rs = RetryState{
				Customer: e.c.Account, Action: e.req.Action, Target: e.req.Target,
				Post: e.req.Post, Text: e.req.Text, Tags: e.req.Tags,
				Attempt: e.attempt, Due: e.due,
			}
			yield(&rs)
		}
	}}
}

// Header returns the service's scalars and short lists; the target pool
// aliases the service's own.
func (s *ReciprocityService) Header() ReciprocityState {
	h := ReciprocityState{Base: s.header(), Pool: s.pool, NextAcct: s.nextAcct, AutomationOn: s.automationOn}
	for t, on := range s.adaptTypes {
		if on {
			h.AdaptTypes = append(h.AdaptTypes, t)
		}
	}
	slices.Sort(h.AdaptTypes)
	return h
}

// Header returns the service's scalars and delivered tallies.
func (s *CollusionService) Header() CollusionState {
	h := CollusionState{
		Base:               s.header(),
		FreeRequestsPerDay: s.freeRequestsPerDay,
		FirstLikeBlock:     s.firstLikeBlock,
		LikeAdaptOn:        s.likeAdaptOn,
		SalesStopped:       s.salesStopped,
		NextAcct:           s.nextAcct,
		AutomationOn:       s.automationOn,
	}
	for t, n := range s.Delivered {
		h.Delivered = append(h.Delivered, ActionCount{Action: t, N: n})
	}
	slices.SortFunc(h.Delivered, func(a, b ActionCount) int { return cmp.Compare(a.Action, b.Action) })
	return h
}

// stagedBase is a decoded engine section's customers and retries, not
// yet installed. Sessions wait as plain states until Commit binds them
// to the platform.
type stagedBase struct {
	customers []*Customer
	sessions  []stagedSession
	retries   []RetryState
	err       error
}

// check runs the checks both engine kinds share: every pending retry
// belongs to a listed customer.
func (s *stagedBase) check() error {
	if s.err != nil {
		return s.err
	}
	ids := make(map[platform.AccountID]bool, len(s.customers))
	for _, c := range s.customers {
		ids[c.Account] = true
	}
	for _, r := range s.retries {
		if !ids[r.Customer] {
			return fmt.Errorf("aas: retry for account %d, which is no customer", r.Customer)
		}
	}
	return nil
}

type stagedSession struct {
	c   *Customer
	own bool
	st  platform.SessionState
}

func (s *stagedBase) LoadCustomers(hint int) func(*CustomerState) {
	s.customers = make([]*Customer, 0, hint)
	return func(cs *CustomerState) {
		if !snaprow.Sorted(cs.Adapt, func(a *AdaptState) platform.ActionType { return a.Action }) ||
			!snaprow.Sorted(cs.Totals, func(ac *ActionCount) platform.ActionType { return ac.Action }) {
			if s.err == nil {
				s.err = fmt.Errorf("aas: customer %d's adaptation or totals are not sorted", cs.Account)
			}
			return
		}
		for _, a := range cs.Adapt {
			if a.Action < 0 || int(a.Action) >= numActionTypes {
				if s.err == nil {
					s.err = fmt.Errorf("aas: customer %d adapts unknown action type %d", cs.Account, a.Action)
				}
				return
			}
		}
		c := &Customer{
			Account:              cs.Account,
			Username:             cs.Username,
			Password:             cs.Password,
			Country:              cs.Country,
			Managed:              cs.Managed,
			Wants:                cs.Wants,
			Hashtags:             cs.Hashtags,
			EnrolledAt:           cs.EnrolledAt,
			LongTermIntent:       cs.LongTermIntent,
			EngagedUntil:         cs.EngagedUntil,
			Churned:              cs.Churned,
			PaidThrough:          cs.PaidThrough,
			Payments:             cs.Payments,
			FirstPaidBeforeStudy: cs.FirstPaidBeforeStudy,
			Product:              cs.Product,
			Tier:                 cs.Tier,
			unfollowAfter:        cs.UnfollowAfter,
			lastFreeRequest:      cs.LastFreeRequest,
			rng:                  rng.FromState(cs.RNG),
			relRNG:               rng.FromState(cs.RelRNG),
			br:                   breaker{fails: cs.Breaker.Fails, tripped: cs.Breaker.Tripped, openUntil: cs.Breaker.OpenUntil},
		}
		for _, a := range cs.Adapt {
			c.adapt[a.Action] = &adaptiveRate{
				learnedCap: a.LearnedCap, todayCount: a.TodayCount,
				todayBlocked: a.TodayBlocked, blockedUntil: a.BlockedUntil, probeWait: a.ProbeWait,
			}
		}
		if len(cs.RecentFollows) > 0 {
			c.recentFollows = make([]pendingUnfollow, len(cs.RecentFollows))
			for i, u := range cs.RecentFollows {
				c.recentFollows[i] = pendingUnfollow{target: u.Target, due: u.Due}
			}
		}
		if len(cs.Totals) > 0 {
			c.totals = make(map[platform.ActionType]int, len(cs.Totals))
			for _, ac := range cs.Totals {
				c.totals[ac.Action] = ac.N
			}
		}
		if cs.Session.Present {
			s.sessions = append(s.sessions, stagedSession{c: c, st: cs.Session})
		}
		if cs.OwnSession.Present {
			s.sessions = append(s.sessions, stagedSession{c: c, own: true, st: cs.OwnSession})
		}
		s.customers = append(s.customers, c)
	}
}

func (s *stagedBase) LoadRetries(hint int) func(*RetryState) { return snaprow.Into(&s.retries)(hint) }

// Pending returns the staged pending retries, for RestoreRetries.
func (s *stagedBase) Pending() []RetryState { return s.retries }

// StagedRecip is a decoded reciprocity-engine section, not yet
// installed.
type StagedRecip struct {
	stagedBase
	h ReciprocityState
}

func (s *StagedRecip) Finish(h *ReciprocityState) error {
	if !snaprow.Sorted(h.AdaptTypes, func(t *platform.ActionType) platform.ActionType { return *t }) {
		return fmt.Errorf("aas: adapted action types are not sorted")
	}
	s.h = *h
	return s.check()
}

// StagedColl is a decoded collusion-engine section, not yet installed.
type StagedColl struct {
	stagedBase
	h CollusionState
}

func (s *StagedColl) Finish(h *CollusionState) error {
	if !snaprow.Sorted(h.Delivered, func(ac *ActionCount) platform.ActionType { return ac.Action }) {
		return fmt.Errorf("aas: delivered tallies are not sorted")
	}
	s.h = *h
	return s.check()
}

// commit installs the shared engine state. Pending retries are NOT
// re-registered here — the caller does that via RestoreRetries once the
// scheduler sits at the snapshot instant.
func (b *base) commit(h *BaseState, s *stagedBase) {
	b.rng.SetState(h.RNG)
	b.Revenue = h.Revenue
	b.AdImpressions = h.AdImpressions
	b.stopped = h.Stopped
	b.customers = s.customers
	clear(b.byID)
	for _, c := range s.customers {
		b.byID[c.Account] = c
	}
	for _, ss := range s.sessions {
		if ss.own {
			ss.c.ownSession = b.plat.RestoreSession(ss.st)
		} else {
			ss.c.session = b.plat.RestoreSession(ss.st)
		}
	}
}

// RestoreRetries re-registers pending backoff retries from a snapshot, in
// their original scheduling order. The customers must already be restored.
func (b *base) RestoreRetries(sts []RetryState) {
	b.retries = b.retries[:0]
	now := b.plat.Now()
	for _, rs := range sts {
		c, ok := b.byID[rs.Customer]
		if !ok {
			continue
		}
		e := &pendingRetry{
			c: c,
			req: platform.Request{
				Action: rs.Action, Target: rs.Target, Post: rs.Post,
				Text: rs.Text, Tags: rs.Tags,
			},
			attempt: rs.Attempt,
			due:     rs.Due,
		}
		b.retries = append(b.retries, e)
		// After(due-now) is At(due); the Scheduler interface only has After.
		b.sched.After(e.due.Sub(now), func() { b.fireRetry(e) })
	}
}

// Commit installs a staged section. Pending retries are re-registered
// separately via RestoreRetries.
func (s *ReciprocityService) Commit(st *StagedRecip) {
	s.commit(&st.h.Base, &st.stagedBase)
	s.pool = st.h.Pool
	s.adaptTypes = make(map[platform.ActionType]bool, len(st.h.AdaptTypes))
	for _, t := range st.h.AdaptTypes {
		s.adaptTypes[t] = true
	}
	s.nextAcct = st.h.NextAcct
	s.automationOn = st.h.AutomationOn
	// The tick applier is per-tick scratch, fully reset at each tick's top.
	s.applier = opApplier{}
}

// Commit installs a staged section. Pending retries are re-registered
// separately via RestoreRetries.
func (s *CollusionService) Commit(st *StagedColl) {
	s.commit(&st.h.Base, &st.stagedBase)
	s.freeRequestsPerDay = st.h.FreeRequestsPerDay
	s.firstLikeBlock = st.h.FirstLikeBlock
	s.likeAdaptOn = st.h.LikeAdaptOn
	s.salesStopped = st.h.SalesStopped
	s.nextAcct = st.h.NextAcct
	s.automationOn = st.h.AutomationOn
	clear(s.Delivered)
	for _, ac := range st.h.Delivered {
		s.Delivered[ac.Action] = ac.N
	}
	// The source cache and duplicate-filter marks are per-instant scratch;
	// dropping them restores identical semantics (they rebuild on use).
	s.sourceCache = nil
	s.sourceCacheAt = time.Time{}
	s.seenMark = nil
	s.seenEpoch = 0
}
