package aas

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/step"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// PaidProduct identifies what a collusion-network customer bought.
type PaidProduct int

// Paid products.
const (
	PaidNone        PaidProduct = iota
	PaidNoOutbound              // one-time fee: never used as a source
	PaidOneTime                 // one-time bulk likes to a single post
	PaidMonthlyTier             // monthly likes-per-photo subscription
)

// Payment is one customer payment to a service.
type Payment struct {
	At     time.Time
	Amount float64
}

// Customer is one enrolled account as the service sees it: credentials,
// the session the service drives, the offerings requested, and lifecycle
// state. Honeypots enroll through exactly this type.
type Customer struct {
	Account  platform.AccountID
	Username string
	Password string
	Country  string

	// Managed marks customers created by the engine's arrival process;
	// their lifecycle (renewals, churn, home activity) is simulated.
	// Honeypots enroll unmanaged and are driven by their framework.
	Managed bool

	// Wants restricts which offerings the service exercises for this
	// customer; empty means everything the service sells.
	Wants []Offering

	// Hashtags, when set, narrows targeting: the service discovers
	// targets through the platform's hashtag feeds instead of its own
	// curated pool (§3.3.1: customers provide hashtags or user lists).
	Hashtags []string

	EnrolledAt time.Time
	// LongTermIntent: drawn at enrollment; whether this customer will
	// keep engaging beyond the short-term window.
	LongTermIntent bool
	// EngagedUntil bounds a short-term customer's activity.
	EngagedUntil time.Time
	// Churned marks a long-term customer who quit.
	Churned bool

	// PaidThrough covers the prepaid service period (reciprocity).
	PaidThrough time.Time
	Payments    []Payment
	// FirstPaidBeforeStudy marks customers who were already paying before
	// the measurement window (Table 10's "preexisting").
	FirstPaidBeforeStudy bool

	// Product and Tier describe a collusion customer's purchase.
	Product PaidProduct
	Tier    int // index into CollusionPricing.MonthlyTiers

	session    *platform.Session // AAS-held session (service infrastructure)
	ownSession *platform.Session // the human's own session (home network)

	// adaptive per-action-type rate control (block-detection state).
	adapt map[platform.ActionType]*adaptiveRate

	// recentFollows is a bounded queue of service-created follows pending
	// automatic unfollow.
	recentFollows []pendingUnfollow
	unfollowAfter bool

	// lastFreeRequest rate-limits a collusion customer's free requests.
	lastFreeRequest time.Time

	// totals tallies actions the service has performed with the account,
	// the numbers a customer's dashboard displays (Figure 1).
	totals map[platform.ActionType]int

	// rng is the customer's private random stream, forked from the
	// service stream at enrollment. Every per-customer decision in the
	// engines' planning phase draws from it, so which other customers
	// plan in the same section never changes the numbers any customer
	// sees. See docs/DETERMINISM.md.
	rng *rng.RNG

	// relRNG is a second private stream feeding only the resilience
	// layer (backoff jitter, re-login IP choice). Keeping fault-path
	// draws off c.rng guarantees the fault machinery cannot shift the
	// planning stream — part of the faults-off byte-identity argument
	// in docs/FAULTS.md.
	relRNG *rng.RNG

	// br is the per-customer circuit breaker over injected
	// infrastructure failures (see resilience.go).
	br breaker

	// tagScratch is the reusable buffer pickTarget fills from the
	// hashtag feed each draw. Customer-local because targeting runs in
	// the planning phase, which must not write shared state.
	tagScratch []platform.PostID
}

// Totals returns a copy of the service-performed action counts.
func (c *Customer) Totals() map[platform.ActionType]int {
	out := make(map[platform.ActionType]int, len(c.totals))
	for k, v := range c.totals {
		out[k] = v
	}
	return out
}

// countAction bumps the dashboard tally.
func (c *Customer) countAction(t platform.ActionType) {
	if c.totals == nil {
		c.totals = make(map[platform.ActionType]int)
	}
	c.totals[t]++
}

type pendingUnfollow struct {
	target platform.AccountID
	due    time.Time
}

// pendingRetry is one scheduled-but-unfired backoff retry. Entries live
// in base.retries so snapshots can serialize them; the scheduled callback
// only points at the entry (see state.go).
type pendingRetry struct {
	c       *Customer
	req     platform.Request
	attempt int
	due     time.Time
	done    bool
}

// wants reports whether the customer requested offering o from a service
// that sells it.
func (c *Customer) wants(s *Spec, o Offering) bool {
	if !s.Offers(o) {
		return false
	}
	if len(c.Wants) == 0 {
		return true
	}
	for _, w := range c.Wants {
		if w == o {
			return true
		}
	}
	return false
}

// adaptiveRate implements the per-account block detector the paper found in
// an open implementation (§6.3): when the platform starts blocking an action
// type, pause for a few hours, cap the daily rate at the observed success
// count, then probe upward.
type adaptiveRate struct {
	learnedCap   float64   // estimated allowed actions/day; 0 = no cap learned
	todayCount   int       // successes so far today
	todayBlocked bool      // saw a block today
	blockedUntil time.Time // cooldown after a block
	probeWait    int       // days until the next upward probe
}

// ready reports whether the block cooldown has passed.
func (a *adaptiveRate) ready(now time.Time) bool {
	return !now.Before(a.blockedUntil)
}

// target returns today's intended action count given the plan rate.
func (a *adaptiveRate) target(plan float64) float64 {
	if a.learnedCap <= 0 {
		return plan
	}
	t := a.learnedCap
	if a.probeWait <= 0 {
		// Probe: try a bit above the learned cap to re-test the limit.
		t = a.learnedCap * 1.15
	}
	if t > plan {
		t = plan
	}
	return t
}

// onBlocked records a synchronous block: the success count so far is the
// service's new estimate of the per-day threshold.
// Transient blocks early in a day must not starve the service, so the
// estimate never falls below half the previous one (nor below a small
// floor) — consistent with the open block-detection implementations the
// paper found, which treat an isolated block as noise, not a hard limit.
func (a *adaptiveRate) onBlocked(now time.Time, probeInterval int) {
	a.blockedUntil = now.Add(3 * time.Hour)
	if a.todayBlocked {
		return // the day's estimate is already updated
	}
	a.todayBlocked = true
	cap := float64(a.todayCount)
	if half := a.learnedCap / 2; cap < half {
		cap = half
	}
	if cap < 5 {
		cap = 5
	}
	a.learnedCap = cap
	a.probeWait = probeInterval
}

// endDay rolls the day boundary.
func (a *adaptiveRate) endDay() {
	a.todayCount = 0
	if !a.todayBlocked && a.learnedCap > 0 {
		if a.probeWait > 0 {
			a.probeWait--
		} else {
			// The probe went unanswered; the limit may have moved up.
			a.learnedCap *= 1.15
		}
	}
	a.todayBlocked = false
}

// base carries the machinery shared by both engine kinds.
type base struct {
	spec  *Spec
	plat  *platform.Platform
	sched Scheduler
	rng   *rng.RNG
	net   *netsim.Registry

	customers []*Customer
	byID      map[platform.AccountID]*Customer

	// api is the platform API the service drives accounts through. Real
	// AASs spoof the private mobile API (the default); the public OAuth
	// API is rate-limited into uselessness for abuse (§2) — see the
	// AblationAPI benchmark.
	api platform.APIKind

	// serviceIPs is the service's automation address pool. Small by
	// design: commercial AASs concentrate traffic on few addresses.
	serviceIPs []netip.Addr
	// proxies, when set, replaces serviceIPs for action traffic — the
	// §6.4 evasion move.
	proxies *netsim.ProxyPool

	// steps is the engine the tick sections run on (nil runs them with
	// no phase word, tracing or counters).
	steps *step.Engine

	// Per-tick reusable scratch (see docs/PERFORMANCE.md): the customer
	// filter slice every tick rebuilds, plus an intent buffer per intent
	// type. Reuse is a pure memory optimization — buffers are truncated
	// to zero length before refill, so no tick ever observes a previous
	// tick's contents; the simtest pooling property test diffs reuse-on
	// vs reuse-off streams to pin that. noReuse (via
	// SetScratchReuse(false)) restores fresh per-tick allocations.
	custScratch []*Customer
	planScratch step.Buffer[plannedOp]
	lifeScratch step.Buffer[lifeOp]
	freeScratch step.Buffer[freeReq]
	noReuse     bool

	// GroundTruth tallies for validating platform-side estimates.
	Revenue       float64
	AdImpressions int

	// rp is the shared retry/breaker policy applied to every customer's
	// automation traffic (see resilience.go).
	rp RetryPolicy

	// retries is the table of scheduled-but-unfired backoff retries.
	// Mutated only on the (serial) scheduler/apply path.
	retries []*pendingRetry

	// telemetry counters for the service's automation outcomes; set by
	// WireTelemetry, nil (inert) otherwise. Incremented only during the
	// serial apply phase, so plain counters on atomics suffice.
	telAttempts  *telemetry.Counter
	telSuccesses *telemetry.Counter

	// resilience-layer instruments (nil-safe; see docs/OBSERVABILITY.md).
	telRetrySched    *telemetry.Counter
	telRetryOK       *telemetry.Counter
	telRetryDrop     *telemetry.Counter
	telRelogin       *telemetry.Counter
	telReloginOK     *telemetry.Counter
	telBreakerOpen   *telemetry.Counter
	telBreakerReopen *telemetry.Counter
	telBreakerClose  *telemetry.Counter
	telShed          [int(platform.ActionLogin) + 1]*telemetry.Counter

	// tracer records retry/breaker transition spans (nil = tracing off);
	// set by WireTrace during world construction. Pure observer, touched
	// only on the serial apply/scheduler path.
	tracer *trace.Tracer

	stopped bool
}

func newBase(spec *Spec, plat *platform.Platform, sched Scheduler, r *rng.RNG, ipPool int) *base {
	if ipPool <= 0 {
		ipPool = 48
	}
	b := &base{
		spec:  spec,
		plat:  plat,
		sched: sched,
		rng:   r,
		net:   plat.Net(),
		byID:  make(map[platform.AccountID]*Customer),
		rp:    DefaultRetryPolicy(),
	}
	for i := 0; i < ipPool; i++ {
		b.serviceIPs = append(b.serviceIPs, b.net.Allocate(spec.ASNs[i%len(spec.ASNs)]))
	}
	return b
}

// Scheduler is the minimal scheduling surface the engines need, satisfied
// by *clock.Scheduler.
type Scheduler interface {
	After(d time.Duration, fn func())
	EveryDay(offset time.Duration, days int, fn func(day int))
}

// SetAPI switches the platform API the service's sessions use. Only
// meaningful before any enrollment.
func (b *base) SetAPI(kind platform.APIKind) { b.api = kind }

// SetStepEngine installs the engine the tick sections run on.
func (b *base) SetStepEngine(e *step.Engine) { b.steps = e }

// SetScratchReuse toggles cross-tick reuse of the engine's planning
// scratch (filter slices, intent buffers). Reuse is on by
// default and never changes the event stream; turning it off exists for
// the simtest pooling property test and for bisecting suspected scratch
// leaks.
func (b *base) SetScratchReuse(on bool) { b.noReuse = !on }

// filterCustomers returns a zero-length customer slice to filter into,
// reusing the engine's scratch capacity unless reuse is disabled. The
// caller must pass the appended result to keepFilter so the grown
// capacity survives to the next tick.
func (b *base) filterCustomers() []*Customer {
	if b.noReuse {
		return nil
	}
	return b.custScratch[:0]
}

// keepFilter stores a filterCustomers slice back for the next tick.
func (b *base) keepFilter(s []*Customer) {
	if !b.noReuse {
		b.custScratch = s
	}
}

// Scratch selectors: each returns the engine's reusable tick scratch for
// one intent type, or nil (fresh allocations) when reuse is disabled.
func (b *base) planSC() *step.Buffer[plannedOp] {
	if b.noReuse {
		return nil
	}
	return &b.planScratch
}

func (b *base) lifeSC() *step.Buffer[lifeOp] {
	if b.noReuse {
		return nil
	}
	return &b.lifeScratch
}

func (b *base) freeSC() *step.Buffer[freeReq] {
	if b.noReuse {
		return nil
	}
	return &b.freeScratch
}

// WireTelemetry registers per-service attempt/success counters on reg,
// named aas.<service>.attempts / aas.<service>.successes. Telemetry is a
// pure observer; a nil reg leaves the service untouched.
func (b *base) WireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	b.telAttempts = reg.Counter("aas." + b.spec.Name + ".attempts")
	b.telSuccesses = reg.Counter("aas." + b.spec.Name + ".successes")
	b.telRetrySched = reg.Counter("aas." + b.spec.Name + ".retries.scheduled")
	b.telRetryOK = reg.Counter("aas." + b.spec.Name + ".retries.recovered")
	b.telRetryDrop = reg.Counter("aas." + b.spec.Name + ".retries.exhausted")
	b.telRelogin = reg.Counter("aas." + b.spec.Name + ".relogin.attempts")
	b.telReloginOK = reg.Counter("aas." + b.spec.Name + ".relogin.recovered")
	b.telBreakerOpen = reg.Counter("aas." + b.spec.Name + ".breaker.opened")
	b.telBreakerReopen = reg.Counter("aas." + b.spec.Name + ".breaker.reopened")
	b.telBreakerClose = reg.Counter("aas." + b.spec.Name + ".breaker.closed")
	for t := platform.ActionLike; t <= platform.ActionPost; t++ {
		b.telShed[t] = reg.Counter("aas." + b.spec.Name + ".shed." + t.String())
	}
}

// WireTrace installs the span tracer: retry schedulings and breaker
// transitions then emit instant spans parented (when possible) onto the
// platform request that provoked them. Nil leaves tracing off.
func (b *base) WireTrace(tr *trace.Tracer) { b.tracer = tr }

// countOutcome tallies one applied automation action into telemetry:
// every call is an attempt, err == nil a success.
func (b *base) countOutcome(err error) {
	b.telAttempts.Inc()
	if err == nil {
		b.telSuccesses.Inc()
	}
}

// actionIP picks the source address for the next automation request.
func (b *base) actionIP() netip.Addr {
	if b.proxies != nil {
		return b.proxies.Pick()
	}
	return b.serviceIPs[b.rng.Intn(len(b.serviceIPs))]
}

// UseProxyNetwork switches all subsequent automation traffic to the proxy
// pool — the evasion the epilogue describes.
func (b *base) UseProxyNetwork(p *netsim.ProxyPool) { b.proxies = p }

// Stop halts all future automation (service shutdown / "out of stock").
func (b *base) Stop() { b.stopped = true }

// Stopped reports whether the service has shut down.
func (b *base) Stopped() bool { return b.stopped }

// Customers returns all enrolled customers.
func (b *base) Customers() []*Customer { return b.customers }

// Customer returns the enrollment record for an account.
func (b *base) Customer(id platform.AccountID) (*Customer, bool) {
	c, ok := b.byID[id]
	return c, ok
}

// Enroll registers the credentials with the service. The service logs in
// immediately from its own infrastructure — the paper's registration flow —
// and begins automation on its normal cadence. wants restricts offerings
// (nil = all).
func (b *base) Enroll(username, password string, wants []Offering) (*Customer, error) {
	sess, err := b.plat.Login(username, password, platform.ClientInfo{
		IP:          b.actionIP(),
		Fingerprint: b.spec.Fingerprint,
		API:         b.api, // zero value is the spoofed private API
	})
	if err != nil {
		return nil, fmt.Errorf("aas %s: enroll %s: %w", b.spec.Name, username, err)
	}
	c := &Customer{
		Account:    sess.Account(),
		Username:   username,
		Password:   password,
		Wants:      wants,
		EnrolledAt: b.plat.Now(),
		session:    sess,
		adapt:      make(map[platform.ActionType]*adaptiveRate),
		rng:        b.rng.Fork(uint64(len(b.customers))),
	}
	// Split is a pure function of the child stream's lineage — it
	// consumes no draws — so carving off the resilience stream cannot
	// shift any existing sequence.
	c.relRNG = c.rng.Split("resilience")
	b.customers = append(b.customers, c)
	b.byID[c.Account] = c
	return c, nil
}

func (b *base) adaptFor(c *Customer, t platform.ActionType) *adaptiveRate {
	a := c.adapt[t]
	if a == nil {
		a = &adaptiveRate{}
		c.adapt[t] = a
	}
	return a
}

// pay records a payment on both the customer and the service ledger.
func (b *base) pay(c *Customer, amount float64) {
	c.Payments = append(c.Payments, Payment{At: b.plat.Now(), Amount: amount})
	b.Revenue += amount
}

// pickCountry draws a customer country from the service's Figure 2 mix.
func (b *base) pickCountry() string {
	ws := b.spec.Customers.Countries
	if len(ws) == 0 {
		return "USA"
	}
	var total float64
	for _, w := range ws {
		total += w.Weight
	}
	x := b.rng.Float64() * total
	for _, w := range ws {
		if x < w.Weight {
			return w.Country
		}
		x -= w.Weight
	}
	return ws[len(ws)-1].Country
}

// homeCountryASN maps a customer country to a residential ASN; OTHER and
// unknown countries land on a uniformly random residential network.
func (b *base) homeCountryASN(country string) netsim.ASN {
	res := b.net.ByKind(netsim.KindResidential)
	if len(res) == 0 {
		panic("aas: no residential ASNs registered")
	}
	var match []netsim.ASN
	for _, a := range res {
		if info, ok := b.net.Info(a); ok && info.Country == country {
			match = append(match, a)
		}
	}
	if len(match) == 0 {
		return res[b.rng.Intn(len(res))]
	}
	return match[b.rng.Intn(len(match))]
}

// probeInterval is how many days a service waits after learning a cap
// before probing upward again.
const probeInterval = 3

// diurnalWeights modulates hourly automation volume to mimic human
// activity (sophisticated services pace their bots like people: quiet
// overnight, peaks midday and evening). Values average 1.0 so daily
// totals match the plan rates.
var diurnalWeights = [24]float64{
	0.35, 0.25, 0.20, 0.20, 0.25, 0.40, // 00–05
	0.65, 0.90, 1.15, 1.30, 1.40, 1.45, // 06–11
	1.45, 1.40, 1.30, 1.25, 1.25, 1.30, // 12–17
	1.45, 1.55, 1.50, 1.25, 0.90, 0.60, // 18–23
}

// diurnal returns the activity weight for the hour of t.
func diurnal(t time.Time) float64 { return diurnalWeights[t.Hour()] }

// ReloginAll re-authenticates every live customer session from the
// service's current address pool. Services do this after switching to a
// proxy network (§6.4) so that subsequent actions originate from the new
// address space. It returns the number of refreshed sessions.
func (b *base) ReloginAll() int {
	n := 0
	for _, c := range b.customers {
		if c.Churned {
			continue
		}
		sess, err := b.plat.Login(c.Username, c.Password, platform.ClientInfo{
			IP:          b.actionIP(),
			Fingerprint: b.spec.Fingerprint,
			API:         b.api,
		})
		if err != nil {
			if errors.Is(err, platform.ErrUnavailable) {
				continue // infrastructure blip: keep the old session
			}
			c.Churned = true // password changed under the service
			continue
		}
		c.session = sess
		n++
	}
	return n
}
