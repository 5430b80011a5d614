package aas

import (
	"fmt"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/rng"
)

// CollusionService is a collusion-network AAS (§3.2): it launders actions
// across its own customer base. Every enrolled account is used as a source
// of outbound actions toward other customers, and receives inbound actions
// in turn. Customers buy their way out of being a source, buy bulk likes
// for a single post, or subscribe to likes-per-photo tiers (Table 3).
type CollusionService struct {
	*base

	// freeRequestsPerDay is the mean number of free service requests an
	// active customer makes per day.
	freeRequestsPerDay float64

	// Like-block detection: the service notices follow blocks immediately
	// but needs DetectionLag to build like-block detection (§6.3).
	firstLikeBlock time.Time
	likeAdaptOn    bool

	salesStopped bool
	nextAcct     int
	automationOn bool

	sourceCache   []*Customer
	sourceCacheAt time.Time

	// seenMark/seenEpoch implement deliver's duplicate-source filter
	// without a per-request map: a pool index is "seen" in the current
	// request iff seenMark[idx] == seenEpoch. Bumping the epoch resets
	// every mark in O(1); on the (astronomically rare) uint32 wrap the
	// slice is cleared so stale marks can never alias a new epoch.
	seenMark  []uint32
	seenEpoch uint32

	// Delivered tallies inbound actions delivered, by action type.
	Delivered map[platform.ActionType]int
}

// NewCollusionService builds the engine for spec. ipPool sizes the
// service's address pool (Followersgratis concentrates on very few).
func NewCollusionService(spec *Spec, plat *platform.Platform, sched Scheduler, r *rng.RNG, ipPool int) *CollusionService {
	if spec.Technique != TechniqueCollusion {
		panic(fmt.Sprintf("aas: %s is not a collusion service", spec.Name))
	}
	return &CollusionService{
		base:               newBase(spec, plat, sched, r, ipPool),
		freeRequestsPerDay: 1.0,
		Delivered:          make(map[platform.ActionType]int),
	}
}

// Spec returns the service's static description.
func (s *CollusionService) Spec() *Spec { return s.spec }

// StopSales lists every paid product as "out of stock" (the epilogue's
// Hublaagram endgame): existing subscriptions lapse and no new payments
// are accepted. Free laundering continues.
func (s *CollusionService) StopSales() { s.salesStopped = true }

// SalesStopped reports whether paid products are still available.
func (s *CollusionService) SalesStopped() bool { return s.salesStopped }

// EnrollFree enrolls credentials for free service — and, immediately, as a
// collusion source ("soon after a customer provides their Instagram
// credentials the service will begin to use the account", §3.3.2).
func (s *CollusionService) EnrollFree(username, password string, wants ...Offering) (*Customer, error) {
	c, err := s.Enroll(username, password, wants)
	if err != nil {
		return nil, err
	}
	c.EngagedUntil = c.EnrolledAt.Add(24 * time.Hour) // extended by requests
	return c, nil
}

// PurchaseNoOutbound charges the one-time fee that removes the account
// from the source pool for life.
func (s *CollusionService) PurchaseNoOutbound(c *Customer) error {
	if s.salesStopped {
		return fmt.Errorf("aas %s: out of stock", s.spec.Name)
	}
	c.Product = PaidNoOutbound
	s.pay(c, s.spec.Collusion.NoOutboundFee)
	return nil
}

// PurchaseOneTime buys bulk likes applied to the customer's latest post as
// fast as possible.
func (s *CollusionService) PurchaseOneTime(c *Customer, pkg int) error {
	if s.salesStopped {
		return fmt.Errorf("aas %s: out of stock", s.spec.Name)
	}
	p := s.spec.Collusion.OneTime[pkg]
	c.Product = PaidOneTime
	s.pay(c, p.Fee)
	if pid, ok := s.plat.LatestPost(c.Account); ok {
		s.deliverLikes(c, pid, p.Likes, false)
	}
	return nil
}

// PurchaseTier subscribes the customer to a likes-per-photo monthly tier.
// The fee recurs monthly while the customer stays active.
func (s *CollusionService) PurchaseTier(c *Customer, tier int) error {
	if s.salesStopped {
		return fmt.Errorf("aas %s: out of stock", s.spec.Name)
	}
	c.Product = PaidMonthlyTier
	c.Tier = tier
	s.pay(c, s.spec.Collusion.MonthlyTiers[tier].MonthlyFee)
	c.PaidThrough = s.plat.Now().Add(30 * 24 * time.Hour)
	return nil
}

// RequestFree asks for one free service quantum (likes onto the latest
// post, or follows). The request is refused inside the per-customer rate
// gap. It returns how many actions were delivered.
func (s *CollusionService) RequestFree(c *Customer, o Offering) (int, error) {
	gap := s.spec.Collusion.FreeRequestGap
	now := s.plat.Now()
	if !c.lastFreeRequest.IsZero() && now.Sub(c.lastFreeRequest) < gap {
		return 0, fmt.Errorf("aas %s: free request inside %v cooldown", s.spec.Name, gap)
	}
	c.lastFreeRequest = now
	if c.EngagedUntil.Before(now.Add(24 * time.Hour)) {
		c.EngagedUntil = now.Add(24 * time.Hour)
	}
	s.AdImpressions += s.spec.Collusion.AdsPerRequest

	switch o {
	case OfferLike:
		pid, ok := s.plat.LatestPost(c.Account)
		if !ok {
			return 0, fmt.Errorf("aas %s: customer has no posts to like", s.spec.Name)
		}
		return s.deliverLikes(c, pid, s.spec.Collusion.FreeLikeQuantum, true), nil
	case OfferFollow:
		return s.deliverFollows(c, s.spec.Collusion.FreeFollowQuantum), nil
	case OfferComment:
		pid, ok := s.plat.LatestPost(c.Account)
		if !ok {
			return 0, fmt.Errorf("aas %s: customer has no posts", s.spec.Name)
		}
		return s.deliverComments(c, pid, 5), nil
	default:
		return 0, fmt.Errorf("aas %s: offering %v not available free", s.spec.Name, o)
	}
}

// sources returns the current source pool: active customers that are not
// opted out. The pool is cached per simulated instant because every free
// request consults it; recipients and newly churned sources are filtered at
// use time.
func (s *CollusionService) sources() []*Customer {
	now := s.plat.Now()
	if s.sourceCacheAt.Equal(now) && s.sourceCache != nil {
		return s.sourceCache
	}
	out := s.sourceCache[:0]
	for _, c := range s.customers {
		if c.Churned || c.Product == PaidNoOutbound {
			continue
		}
		if !s.activeAt(c, now) {
			continue
		}
		out = append(out, c)
	}
	s.sourceCache = out
	s.sourceCacheAt = now
	return out
}

func (s *CollusionService) activeAt(c *Customer, now time.Time) bool {
	if s.stopped || c.Churned {
		return false
	}
	if c.Managed && c.LongTermIntent {
		return true
	}
	return !now.After(c.EngagedUntil) || !now.After(c.PaidThrough)
}

// DeliverTier delivers one tier quantum of likes onto the given post —
// the fulfilment path for a paid subscriber's new photo. Exposed for
// studies that drive unmanaged (externally created) tier customers.
func (s *CollusionService) DeliverTier(c *Customer, pid platform.PostID, tier LikeTier) int {
	want := tier.MinLikes
	if tier.MaxLikes > tier.MinLikes {
		want += s.rng.Intn(tier.MaxLikes - tier.MinLikes + 1)
	}
	return s.deliverLikes(c, pid, want, false)
}

// deliverLikes makes n distinct sources like pid. free deliveries respect
// the per-photo hourly cap; paid deliveries deliberately exceed it (that
// speed is the product). Returns likes delivered.
func (s *CollusionService) deliverLikes(c *Customer, pid platform.PostID, n int, free bool) int {
	if free && s.spec.Collusion.FreeLikeHourlyCap > 0 && n > s.spec.Collusion.FreeLikeHourlyCap {
		n = s.spec.Collusion.FreeLikeHourlyCap
	}
	return s.deliver(c, n, platform.Request{Action: platform.ActionLike, Post: pid})
}

func (s *CollusionService) deliverFollows(c *Customer, n int) int {
	return s.deliver(c, n, platform.Request{Action: platform.ActionFollow, Target: c.Account})
}

func (s *CollusionService) deliverComments(c *Customer, pid platform.PostID, n int) int {
	return s.deliver(c, n, platform.Request{Action: platform.ActionComment, Post: pid, Text: "awesome!"})
}

// deliver makes n distinct sources submit req (the recipient-fixed
// action: the target post/account is the same for every source, only
// the acting session differs). req.Session stays unset — the resilience
// layer fills it per attempt from each source's live session.
func (s *CollusionService) deliver(c *Customer, n int, req platform.Request) int {
	t := req.Action
	pool := s.sources()
	if len(pool) == 0 || n <= 0 {
		return 0
	}
	// Draw distinct random sources by probing; bounded attempts keep a
	// request O(n) even when most of the pool is throttled or the pool is
	// smaller than the quantum. The duplicate filter is the epoch-marked
	// slice (see seenMark) — same skip/attempt semantics as a per-request
	// set, zero allocations in steady state.
	s.seenEpoch++
	if s.seenEpoch == 0 {
		clear(s.seenMark)
		s.seenEpoch = 1
	}
	if len(s.seenMark) < len(pool) {
		s.seenMark = make([]uint32, len(pool))
	}
	mark, epoch := s.seenMark, s.seenEpoch
	delivered := 0
	for attempts := 0; delivered < n && attempts < 4*n+64; attempts++ {
		idx := s.rng.Intn(len(pool))
		if mark[idx] == epoch {
			continue
		}
		mark[idx] = epoch
		src := pool[idx]
		if src.Account == c.Account || src.Churned {
			continue
		}
		ad := s.adaptFor(src, t)
		if s.throttled(src, t, ad) {
			continue
		}
		if s.shedByBreaker(src, t) {
			continue
		}
		// Source actions route through the shared resilience layer:
		// outcome counting, breaker feedback, transparent re-login on
		// revocation (churning the source only on a real password
		// change), and backoff retries on injected unavailability.
		// Late retry successes count on the source's dashboard but not
		// in delivered/Delivered — the request's quantum is judged at
		// request time.
		err := s.execute(src, req)
		switch err {
		case nil:
			ad.todayCount++
			delivered++
			s.Delivered[t]++
		case platform.ErrBlocked:
			s.onBlock(src, t, ad)
		}
	}
	return delivered
}

// throttled reports whether the service's own adaptation currently keeps
// this source quiet for the given action type.
func (s *CollusionService) throttled(src *Customer, t platform.ActionType, ad *adaptiveRate) bool {
	now := s.plat.Now()
	switch t {
	case platform.ActionFollow:
		// Follow-block detection is immediate, as for every AAS.
		return !ad.ready(now) || (ad.learnedCap > 0 && float64(ad.todayCount) >= ad.target(1e18))
	case platform.ActionLike:
		if !s.likeAdaptOn {
			return false
		}
		return !ad.ready(now) || (ad.learnedCap > 0 && float64(ad.todayCount) >= ad.target(1e18))
	default:
		return false
	}
}

// onBlock feeds the service's block detectors.
func (s *CollusionService) onBlock(src *Customer, t platform.ActionType, ad *adaptiveRate) {
	switch t {
	case platform.ActionFollow:
		ad.onBlocked(s.plat.Now(), probeInterval)
	case platform.ActionLike:
		if s.firstLikeBlock.IsZero() {
			s.firstLikeBlock = s.plat.Now()
		}
		// Until the detector ships, blocks go unnoticed.
		if s.likeAdaptOn {
			ad.onBlocked(s.plat.Now(), probeInterval)
		}
	}
}

// Run schedules the collusion network's lifecycle for days: hourly free
// request processing and a daily lifecycle tick. Equivalent to
// StartAutomation + StartLifecycle.
func (s *CollusionService) Run(days int, scale float64) {
	s.StartAutomation(days)
	s.StartLifecycle(days, scale)
}

// StartAutomation schedules the hourly free-request driver. Call once.
func (s *CollusionService) StartAutomation(days int) {
	if s.automationOn {
		panic("aas: StartAutomation called twice for " + s.spec.Name)
	}
	s.automationOn = true
	for h := 0; h < days*24; h++ {
		s.sched.After(time.Duration(h)*time.Hour+23*time.Minute, s.hourTick)
	}
}

// StartLifecycle seeds the initial cohort and schedules daily dynamics.
func (s *CollusionService) StartLifecycle(days int, scale float64) {
	s.seedInitialCohort(scale)
	s.sched.EveryDay(40*time.Minute, days, func(int) { s.dailyTick(scale) })
}

func (s *CollusionService) seedInitialCohort(scale float64) {
	n := s.spec.Customers.InitialCohort(scale)
	for i := 0; i < n; i++ {
		c := s.spawnCustomer()
		if c == nil {
			continue
		}
		c.LongTermIntent = true
		if c.Product != PaidNone {
			c.FirstPaidBeforeStudy = true
		}
	}
}

func (s *CollusionService) spawnCustomer() *Customer {
	s.nextAcct++
	username := fmt.Sprintf("cust-%s-%d", s.spec.Name, s.nextAcct)
	password := "pw-" + username
	country := s.pickCountry()
	_, err := s.plat.RegisterAccount(username, password, platform.Profile{
		PhotoCount: 2 + s.rng.Intn(10), HasProfilePic: true, HasBio: true, HasName: true,
	}, country)
	if err != nil {
		return nil
	}
	homeIP := s.net.Allocate(s.homeCountryASN(country))
	own, err := s.plat.Login(username, password, platform.ClientInfo{
		IP: homeIP, Fingerprint: "mobile-official", API: platform.APIPrivate,
	})
	if err != nil {
		return nil
	}
	c, err := s.Enroll(username, password, nil)
	if err != nil {
		return nil
	}
	c.Country = country
	c.Managed = true
	c.ownSession = own
	c.LongTermIntent = s.rng.Bool(s.spec.Customers.LongTermConversion)
	if c.LongTermIntent {
		c.EngagedUntil = c.EnrolledAt.Add(5 * 24 * time.Hour)
	} else {
		short := time.Duration(s.rng.ExpFloat64() * s.spec.Customers.ShortTermMeanDays * 24 * float64(time.Hour))
		if short < 6*time.Hour {
			short = 6 * time.Hour
		}
		if short > 4*24*time.Hour {
			short = 4 * 24 * time.Hour
		}
		c.EngagedUntil = c.EnrolledAt.Add(short)
	}
	s.assignProduct(c)
	return c
}

// assignProduct draws the customer's purchase per the Table 9 fractions.
func (s *CollusionService) assignProduct(c *Customer) {
	if s.salesStopped {
		return
	}
	pf := s.spec.Customers.PayingFractions
	x := s.rng.Float64()
	switch {
	case x < pf.NoOutbound:
		s.PurchaseNoOutbound(c)
	case x < pf.NoOutbound+pf.OneTime:
		if len(s.spec.Collusion.OneTime) > 0 {
			s.PurchaseOneTime(c, s.rng.Intn(len(s.spec.Collusion.OneTime)))
		}
	default:
		x -= pf.NoOutbound + pf.OneTime
		for i, f := range pf.Tiers {
			if x < f {
				s.PurchaseTier(c, i)
				return
			}
			x -= f
		}
	}
}

// dailyTick runs the daily lifecycle. Detector shipping and arrivals run
// first; per-customer decisions (adaptation rollover, churn, home
// activity) are planned from each customer's own stream, and the
// platform-touching outcomes — logins, posts, tier renewals and
// deliveries — apply in customer order.
func (s *CollusionService) dailyTick(scale float64) {
	if s.stopped {
		return
	}
	now := s.plat.Now()

	// Like-block detector ships DetectionLag after the first block.
	if !s.likeAdaptOn && !s.firstLikeBlock.IsZero() &&
		now.Sub(s.firstLikeBlock) >= s.spec.DetectionLag {
		s.likeAdaptOn = true
	}

	for i, n := 0, s.rng.Poisson(s.spec.Customers.DailyArrivals*scale); i < n; i++ {
		s.spawnCustomer()
	}

	alive := s.custScratch[:0]
	for _, c := range s.customers {
		if !c.Churned {
			alive = append(alive, c)
		}
	}
	s.custScratch = alive
	runSection(s.steps, &s.lifeScratch, alive, func(c *Customer, emit func(lifeOp)) {
		// Sources' daily adaptation windows roll for every enrolled
		// account, managed or not (honeypots are sources too); the state
		// is customer-local, so rolling it during planning is safe.
		c.endDay()
		if !c.Managed {
			return
		}
		op := lifeOp{c: c}
		if c.LongTermIntent && c.rng.Bool(s.spec.Customers.DailyChurn) {
			op.churn = true
			emit(op)
			return
		}
		if !s.activeAt(c, now) {
			return
		}
		// Home login and posting.
		if c.ownSession != nil && c.rng.Bool(0.8) {
			op.login = true
			op.post = c.rng.Bool(0.55)
		}
		if op.login {
			emit(op)
		}
	}, func(op lifeOp) {
		c := op.c
		if op.churn {
			c.Churned = true
			return
		}
		// Keep the fresh home session so a session-store flap only
		// interrupts home activity until the next daily login.
		if sess, err := s.plat.Login(c.Username, c.Password, c.ownSession.Client()); err == nil {
			c.ownSession = sess
		}
		posted := false
		if op.post {
			if c.ownSession.Do(platform.Request{Action: platform.ActionPost}).Err == nil {
				posted = true
			}
		}
		// Tier subscribers: deliver the tier quantum onto each new photo,
		// faster than the free cap allows (that is what they pay for).
		if c.Product == PaidMonthlyTier && posted {
			if now.After(c.PaidThrough) {
				if s.salesStopped {
					c.Product = PaidNone
				} else {
					s.pay(c, s.spec.Collusion.MonthlyTiers[c.Tier].MonthlyFee)
					c.PaidThrough = now.Add(30 * 24 * time.Hour)
				}
			}
			if c.Product == PaidMonthlyTier {
				if pid, ok := s.plat.LatestPost(c.Account); ok {
					s.DeliverTier(c, pid, s.spec.Collusion.MonthlyTiers[c.Tier])
				}
			}
		}
	})
}

// freeReq is one planned free-service request.
type freeReq struct {
	c *Customer
	o Offering
}

// hourTick processes the hour's free requests: request counts and the
// offering mix are planned from per-customer streams, then each request
// is fulfilled in customer order (source selection draws from the service
// stream during apply).
func (s *CollusionService) hourTick() {
	if s.stopped {
		return
	}
	now := s.plat.Now()
	eligible := s.custScratch[:0]
	for _, c := range s.customers {
		if !c.Managed || !s.activeAt(c, now) || c.Product == PaidMonthlyTier || c.Product == PaidOneTime {
			continue
		}
		eligible = append(eligible, c)
	}
	s.custScratch = eligible
	runSection(s.steps, &s.freeScratch, eligible, func(c *Customer, emit func(freeReq)) {
		n := c.rng.Poisson(s.freeRequestsPerDay / 24 * diurnal(now))
		for i := 0; i < n; i++ {
			// Request-type mix: like requests deliver twice the quantum of
			// follow requests, so the per-request probabilities are set to
			// make the delivered-action mix land on Table 11 (likes 63%,
			// follows 35%, comments ~2%).
			o := OfferLike
			r := c.rng.Float64()
			switch {
			case r < 0.44 && s.spec.Offers(OfferLike):
			case r < 0.97 && s.spec.Offers(OfferFollow):
				o = OfferFollow
			case s.spec.Offers(OfferComment):
				o = OfferComment
			}
			emit(freeReq{c: c, o: o})
		}
	}, func(req freeReq) {
		s.RequestFree(req.c, req.o)
	})
}

// ActiveCustomers returns the number of accounts currently engaged.
func (s *CollusionService) ActiveCustomers() int {
	now := s.plat.Now()
	n := 0
	for _, c := range s.customers {
		if s.activeAt(c, now) {
			n++
		}
	}
	return n
}

// LikeAdaptationActive reports whether the like-block detector has shipped.
func (s *CollusionService) LikeAdaptationActive() bool { return s.likeAdaptOn }
