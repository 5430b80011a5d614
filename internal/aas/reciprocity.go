package aas

import (
	"fmt"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/rng"
)

// ReciprocityService is a reciprocity-abuse AAS (§3.1): it automates
// outbound likes, follows, and comments from customer accounts toward a
// curated pool of organic users, harvesting whatever actions those users
// reciprocate. It never manufactures inbound actions itself.
type ReciprocityService struct {
	*base

	// pool is the curated organic target set the service maintains.
	pool []platform.AccountID

	// adaptTypes lists the action types whose blocks the service detects
	// and adapts to. Reciprocity services' income rides on follows, and
	// follows are what they watch (§6.3); like-block detection arrives
	// only with the late evasion wave.
	adaptTypes map[platform.ActionType]bool

	// unfollowDelay is how long after an automated follow the optional
	// auto-unfollow fires.
	unfollowDelay time.Duration

	nextAcct     int
	automationOn bool

	// applier is the persistent serial-apply state machine for hourTick;
	// reset (cur/skip) at the top of every tick.
	applier opApplier
}

// NewReciprocityService builds the engine for spec. The spec must describe
// a reciprocity service.
func NewReciprocityService(spec *Spec, plat *platform.Platform, sched Scheduler, r *rng.RNG) *ReciprocityService {
	if spec.Technique != TechniqueReciprocity {
		panic(fmt.Sprintf("aas: %s is not a reciprocity service", spec.Name))
	}
	return &ReciprocityService{
		base:          newBase(spec, plat, sched, r, 48),
		adaptTypes:    map[platform.ActionType]bool{platform.ActionFollow: true},
		unfollowDelay: 48 * time.Hour,
	}
}

// Spec returns the service's static description.
func (s *ReciprocityService) Spec() *Spec { return s.spec }

// SetTargetPool installs the curated organic accounts the service targets.
func (s *ReciprocityService) SetTargetPool(ids []platform.AccountID) {
	s.pool = append([]platform.AccountID(nil), ids...)
}

// EnrollTrial enrolls the credentials on the free trial, restricted to the
// given offerings (nil = all). This is the honeypot registration path.
func (s *ReciprocityService) EnrollTrial(username, password string, wants ...Offering) (*Customer, error) {
	c, err := s.Enroll(username, password, wants)
	if err != nil {
		return nil, err
	}
	c.EngagedUntil = c.EnrolledAt.Add(time.Duration(s.spec.Reciprocity.ActualTrialDays()) * 24 * time.Hour)
	return c, nil
}

// Purchase charges the customer for one minimum period and extends paid
// service, starting from the later of now and the current paid horizon.
func (s *ReciprocityService) Purchase(c *Customer) {
	s.pay(c, s.spec.Reciprocity.CostPerPeriod)
	from := s.plat.Now()
	if c.PaidThrough.After(from) {
		from = c.PaidThrough
	}
	if c.EngagedUntil.After(from) {
		from = c.EngagedUntil // paid time begins after the trial
	}
	c.PaidThrough = from.Add(time.Duration(s.spec.Reciprocity.MinPaidDays) * 24 * time.Hour)
}

// activeAt reports whether the service is currently driving this account.
func (s *ReciprocityService) activeAt(c *Customer, now time.Time) bool {
	if s.stopped || c.Churned {
		return false
	}
	return !now.After(c.EngagedUntil) || !now.After(c.PaidThrough)
}

// ActiveCustomers returns the number of accounts the service is driving now.
func (s *ReciprocityService) ActiveCustomers() int {
	now := s.plat.Now()
	n := 0
	for _, c := range s.customers {
		if s.activeAt(c, now) {
			n++
		}
	}
	return n
}

// Run schedules the service's automation and customer lifecycle for the
// given number of days. Equivalent to StartAutomation + StartLifecycle.
func (s *ReciprocityService) Run(days int, scale float64) {
	s.StartAutomation(days)
	s.StartLifecycle(days, scale)
}

// StartAutomation schedules the hourly action driver for days days. It
// must be called exactly once per service; enrolled accounts (honeypots
// included) receive service from the moment they enroll.
func (s *ReciprocityService) StartAutomation(days int) {
	if s.automationOn {
		panic("aas: StartAutomation called twice for " + s.spec.Name)
	}
	s.automationOn = true
	for h := 0; h < days*24; h++ {
		s.sched.After(time.Duration(h)*time.Hour+17*time.Minute, s.hourTick)
	}
}

// StartLifecycle seeds the initial long-term cohort and schedules the
// daily customer dynamics (arrivals, renewals, churn, home activity).
// scale shrinks the paper-scale numbers.
func (s *ReciprocityService) StartLifecycle(days int, scale float64) {
	s.seedInitialCohort(scale)
	s.sched.EveryDay(20*time.Minute, days, func(int) { s.dailyTick(scale) })
}

// seedInitialCohort creates the long-term customers already subscribed when
// the measurement window opens.
func (s *ReciprocityService) seedInitialCohort(scale float64) {
	n := s.spec.Customers.InitialCohort(scale)
	period := time.Duration(s.spec.Reciprocity.MinPaidDays) * 24 * time.Hour
	for i := 0; i < n; i++ {
		c := s.spawnCustomer()
		if c == nil {
			continue
		}
		c.LongTermIntent = true
		c.FirstPaidBeforeStudy = true
		// Trials were consumed before the window; stagger renewals.
		c.EngagedUntil = c.EnrolledAt
		c.PaidThrough = c.EnrolledAt.Add(time.Duration(s.rng.Float64() * float64(period)))
	}
}

// spawnCustomer creates the platform account and enrolls it.
func (s *ReciprocityService) spawnCustomer() *Customer {
	s.nextAcct++
	username := fmt.Sprintf("cust-%s-%d", s.spec.Name, s.nextAcct)
	password := "pw-" + username
	country := s.pickCountry()
	_, err := s.plat.RegisterAccount(username, password, platform.Profile{
		PhotoCount: 3 + s.rng.Intn(15), HasProfilePic: true, HasBio: true, HasName: true,
	}, country)
	if err != nil {
		return nil
	}
	// The customer logs in from home first — their own phone — and then
	// hands the credentials to the service.
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
	c.unfollowAfter = s.rng.Bool(s.spec.UnfollowAfter)
	trial := time.Duration(s.spec.Reciprocity.ActualTrialDays()) * 24 * time.Hour
	c.LongTermIntent = s.rng.Bool(s.spec.Customers.LongTermConversion)
	if c.LongTermIntent {
		c.EngagedUntil = c.EnrolledAt.Add(trial)
	} else {
		short := time.Duration(s.rng.ExpFloat64() * s.spec.Customers.ShortTermMeanDays * 24 * float64(time.Hour))
		if short > trial {
			short = trial
		}
		if short < 12*time.Hour {
			short = 12 * time.Hour
		}
		c.EngagedUntil = c.EnrolledAt.Add(short)
	}
	return c
}

// dailyTick runs arrivals, renewals, churn, and customers' own activity.
// Arrivals run first — they draw from the service stream and mutate the
// enrollment tables — then the per-customer lifecycle decisions are
// planned from each customer's own stream and applied in customer order.
func (s *ReciprocityService) dailyTick(scale float64) {
	if s.stopped {
		return
	}
	now := s.plat.Now()

	// New customers arrive.
	for i, n := 0, s.rng.Poisson(s.spec.Customers.DailyArrivals*scale); i < n; i++ {
		s.spawnCustomer()
	}

	managed := s.custScratch[:0]
	for _, c := range s.customers {
		if c.Managed && !c.Churned {
			managed = append(managed, c)
		}
	}
	s.custScratch = managed
	runSection(s.steps, &s.lifeScratch, managed, func(c *Customer, emit func(lifeOp)) {
		op := lifeOp{c: c}
		// Long-term customers renew once the previous period lapses.
		op.renew = c.LongTermIntent && now.After(c.EngagedUntil) && now.After(c.PaidThrough)
		// Churn hazard applies to paying customers.
		if c.LongTermIntent && c.rng.Bool(s.spec.Customers.DailyChurn) {
			op.churn = true
			emit(op)
			return
		}
		// A renewal reactivates the account, so home activity is planned
		// for customers active now or active once the renewal applies.
		if !op.renew && !s.activeAt(c, now) {
			return
		}
		// The human behind the account still uses it: daily home login
		// (feeding geolocation) and occasional posting.
		if c.ownSession != nil && c.rng.Bool(0.75) {
			op.login = true
			op.post = c.rng.Bool(0.45)
		}
		if op.renew || op.login {
			emit(op)
		}
	}, func(op lifeOp) {
		if op.renew {
			s.Purchase(op.c)
		}
		if op.churn {
			op.c.Churned = true
			return
		}
		if op.login {
			// The human's phone logs in fresh each day; keeping the new
			// session means a session-store flap only interrupts home
			// activity until the next login. Faults-off the fresh session
			// is indistinguishable from the old one.
			if sess, err := s.plat.Login(op.c.Username, op.c.Password, op.c.ownSession.Client()); err == nil {
				op.c.ownSession = sess
			}
			if op.post {
				op.c.ownSession.Do(platform.Request{Action: platform.ActionPost})
			}
		}
	})
}

// hourTick performs one hour's slice of automation for every active
// account. Every stochastic decision — whether to post, how many actions
// of each type, which targets — is planned from per-customer streams
// against the pre-tick platform state; the resulting intents then execute
// in customer order. Outcome feedback (blocks, rate
// limits, session revocation) happens during the serial apply, with the
// same stop-this-action-type semantics the sequential loop had.
func (s *ReciprocityService) hourTick() {
	if s.stopped || len(s.pool) == 0 {
		return
	}
	now := s.plat.Now()
	active := s.custScratch[:0]
	for _, c := range s.customers {
		if s.activeAt(c, now) {
			active = append(active, c)
		}
	}
	s.custScratch = active
	// The applier persists across ticks; resetting cur and the skip set
	// makes each tick start from exactly the state a fresh applier has.
	if s.applier.skip == nil {
		s.applier = opApplier{s: s, skip: make(map[platform.ActionType]bool)}
	}
	s.applier.cur = nil
	clear(s.applier.skip)
	runSection(s.steps, &s.planScratch, active, func(c *Customer, emit func(plannedOp)) {
		s.planCustomer(c, now, emit)
	}, s.applier.apply)
	if now.Hour() == 23 {
		for _, c := range active {
			c.endDay()
		}
	}
}

// planCustomer makes every stochastic decision for one customer's hour —
// the plan phase. It draws only from the customer's own forked
// stream, reads platform state without writing it, and emits the actions
// the service intends to perform.
func (s *ReciprocityService) planCustomer(c *Customer, now time.Time, emit func(plannedOp)) {
	r := c.rng
	// Post automation (Table 1: Instazood and Boostgram sell posts): the
	// service publishes content on the customer's behalf, roughly daily.
	if c.wants(s.spec, OfferPost) {
		if plan := s.spec.DailyActions[platform.ActionPost]; plan > 0 || len(c.Wants) > 0 {
			rate := plan
			if rate <= 0 {
				rate = 1 // default for explicit post requests
			}
			if r.Bool(rate / 24) {
				emit(plannedOp{c: c, action: platform.ActionPost})
			}
		}
	}
	type work struct {
		offer  Offering
		action platform.ActionType
	}
	for _, w := range []work{
		{OfferLike, platform.ActionLike},
		{OfferFollow, platform.ActionFollow},
		{OfferComment, platform.ActionComment},
	} {
		if !c.wants(s.spec, w.offer) {
			continue
		}
		plan := s.spec.DailyActions[w.action]
		if plan <= 0 {
			continue
		}
		ad := s.adaptFor(c, w.action)
		if !ad.ready(now) {
			continue // cooling off after a block
		}
		remaining := int(ad.target(plan)) - ad.todayCount
		if remaining <= 0 {
			continue
		}
		n := r.Poisson(plan / 24 * diurnal(now))
		if n > remaining {
			n = remaining
		}
		for i := 0; i < n; i++ {
			target, pid, ok := s.pickTarget(r, c, w.action != platform.ActionFollow)
			if !ok || target == c.Account {
				continue
			}
			emit(plannedOp{c: c, action: w.action, target: target, post: pid})
		}
	}
	s.planUnfollows(c, now, emit)
}

// opApplier executes a tick's planned actions serially, carrying the
// per-customer feedback the sequential loop got inline: a block or rate
// limit stops the rest of that customer's batch for the same action
// type, and a revoked session churns the customer, voiding the rest of
// their batch. Intents arrive grouped by customer, so the skip state
// resets whenever the current customer changes.
type opApplier struct {
	s    *ReciprocityService
	cur  *Customer
	skip map[platform.ActionType]bool
}

func (a *opApplier) apply(op plannedOp) {
	if op.c != a.cur {
		a.cur = op.c
		clear(a.skip)
	}
	s, c := a.s, op.c
	if c.Churned || a.skip[op.action] {
		return
	}
	if s.shedByBreaker(c, op.action) {
		return
	}
	// All requests route through the shared resilience layer (execute):
	// it counts outcomes, feeds the breaker, transparently re-logs-in on
	// session revocation (churning the customer only when the password
	// really changed), and schedules backoff retries on ErrUnavailable.
	switch op.action {
	case platform.ActionPost:
		err := s.execute(c, platform.Request{Action: platform.ActionPost})
		if err == nil {
			c.countAction(platform.ActionPost)
		}
		return
	case platform.ActionUnfollow:
		err := s.execute(c, platform.Request{Action: platform.ActionUnfollow, Target: op.target})
		if err == nil {
			c.countAction(platform.ActionUnfollow)
		}
		return
	}
	var err error
	switch op.action {
	case platform.ActionLike:
		err = s.execute(c, platform.Request{Action: platform.ActionLike, Post: op.post})
	case platform.ActionFollow:
		err = s.execute(c, platform.Request{Action: platform.ActionFollow, Target: op.target})
		if err == nil && c.unfollowAfter {
			c.pushUnfollow(op.target, s.plat.Now().Add(s.unfollowDelay))
		}
	case platform.ActionComment:
		err = s.execute(c, platform.Request{Action: platform.ActionComment, Post: op.post, Text: "nice!"})
	}
	ad := s.adaptFor(c, op.action)
	switch err {
	case nil:
		ad.todayCount++
		c.countAction(op.action)
	case platform.ErrBlocked:
		if s.adaptTypes[op.action] {
			ad.onBlocked(s.plat.Now(), probeInterval)
		}
		a.skip[op.action] = true
	case platform.ErrRateLimited:
		a.skip[op.action] = true
	case platform.ErrUnavailable:
		// Retries are already booked; stop hammering a down platform
		// with the rest of this hour's batch for the action type.
		a.skip[op.action] = true
	case platform.ErrSessionRevoked:
		// Re-login failed against a genuinely changed password; execute
		// already churned the customer (account lost to the service).
	}
}

// pickTarget chooses the next recipient. Customers with hashtag lists are
// served from the platform's hashtag feeds; everyone else from the
// service's curated pool. needPost selects a post for like/comment
// actions. It runs during planning, so it draws from the caller's stream
// and only reads platform state.
func (s *ReciprocityService) pickTarget(r *rng.RNG, c *Customer, needPost bool) (platform.AccountID, platform.PostID, bool) {
	if len(c.Hashtags) > 0 {
		tag := c.Hashtags[r.Intn(len(c.Hashtags))]
		// The feed query fills the customer's own scratch buffer: picking
		// runs in the planning phase, which must not write shared state.
		c.tagScratch = s.plat.AppendRecentByTag(c.tagScratch[:0], tag, 64)
		posts := c.tagScratch
		if len(posts) > 0 {
			pid := posts[r.Intn(len(posts))]
			if author, ok := s.plat.PostAuthor(pid); ok {
				return author, pid, true
			}
		}
		// Stale or empty feed: fall through to the curated pool.
	}
	if len(s.pool) == 0 {
		return 0, 0, false
	}
	target := s.pool[r.Intn(len(s.pool))]
	if !needPost {
		return target, 0, true
	}
	pid, ok := s.plat.LatestPost(target)
	if !ok {
		return 0, 0, false
	}
	return target, pid, true
}

func (c *Customer) pushUnfollow(target platform.AccountID, due time.Time) {
	const maxPending = 2048
	if len(c.recentFollows) >= maxPending {
		c.recentFollows = c.recentFollows[1:]
	}
	c.recentFollows = append(c.recentFollows, pendingUnfollow{target: target, due: due})
}

// planUnfollows emits due auto-unfollows, a handful per hour. The pending
// queue is customer-local, so popping it during planning is safe.
func (s *ReciprocityService) planUnfollows(c *Customer, now time.Time, emit func(plannedOp)) {
	if !c.unfollowAfter || !c.wants(s.spec, OfferUnfollow) {
		return
	}
	budget := int(s.spec.DailyActions[platform.ActionUnfollow]/24) + 1
	for budget > 0 && len(c.recentFollows) > 0 && !c.recentFollows[0].due.After(now) {
		target := c.recentFollows[0].target
		c.recentFollows = c.recentFollows[1:]
		emit(plannedOp{c: c, action: platform.ActionUnfollow, target: target})
		budget--
	}
}
