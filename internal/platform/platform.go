// Package platform implements the simulated photo-sharing service the study
// runs against: account registration and credentials, login sessions with
// client metadata, the action API (like, follow, unfollow, comment, post),
// ordinary API rate limits, an event stream, and the enforcement hooks that
// countermeasures attach to.
//
// The platform deliberately exposes the same surfaces Instagram exposed in
// the paper:
//
//   - customers hand their credentials to AASs, which then Login and act on
//     their behalf through the (spoofed) private mobile API;
//   - every request carries an IP, resolved to an ASN and country, plus a
//     client fingerprint — the signals detection keys on (§5);
//   - a Gatekeeper interposes on every action and can allow it, block it
//     synchronously, or allow it and schedule deferred removal (§6.1);
//   - resetting an account's password revokes all outstanding sessions,
//     which is exactly how users evict an AAS (§3.3.1).
//
// Every mutation routes through one choke point, Do(Request): a typed
// action envelope carrying the session, client metadata, and payload.
// Session-validity checks, fault injection, rate limiting, gatekeeping,
// state mutation, event emission, and telemetry all happen once, in
// Do's pipeline, instead of being re-wired per action (see
// docs/ARCHITECTURE.md). Mutable state lives in one struct-of-arrays
// table addressed by ID (see table.go) and holds no locks: the world is
// single-writer (see Platform).
package platform

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/socialgraph"
	"footsteps/internal/step"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// AccountID aliases the graph's account identifier; the two packages share
// one ID space.
type AccountID = socialgraph.AccountID

// PostID aliases the graph's post identifier.
type PostID = socialgraph.PostID

// Errors returned by platform operations.
var (
	ErrBadCredentials = errors.New("platform: bad credentials")
	ErrSessionRevoked = errors.New("platform: session revoked")
	ErrAccountGone    = errors.New("platform: account deleted")
	ErrBlocked        = errors.New("platform: action blocked")
	ErrRateLimited    = errors.New("platform: rate limited")
	ErrUsernameTaken  = errors.New("platform: username taken")
	// ErrUnavailable is a transient 5xx-style infrastructure failure
	// injected by a fault schedule (internal/faults); clients may retry.
	ErrUnavailable = errors.New("platform: service unavailable")
	// ErrNoSession marks a Request submitted without a session.
	ErrNoSession = errors.New("platform: request without session")
)

// Profile captures the externally visible richness of an account — what
// separates the paper's "empty" honeypots from "lived-in" ones (§4.1.1).
type Profile struct {
	PhotoCount    int // photos uploaded at creation
	HasProfilePic bool
	HasBio        bool
	HasName       bool
}

// LivedIn reports whether the profile meets the paper's lived-in bar:
// photos plus a fully populated identity.
func (p Profile) LivedIn() bool {
	return p.PhotoCount >= 10 && p.HasProfilePic && p.HasBio && p.HasName
}

// Config tunes a Platform.
type Config struct {
	// GraphWrites controls whether actions mutate the social graph. Full
	// fidelity (true) is right for honeypot and intervention studies. The
	// population-scale 90-day business simulation disables it and relies
	// on the event stream, keeping memory flat; see DESIGN.md §6.
	GraphWrites bool
	// PrivateHourlyLimit caps actions per account per hour on the private
	// API. Real services self-throttle below this.
	PrivateHourlyLimit int
	// OAuthHourlyLimit caps the public API "in a manner that precludes
	// broad abusive use" (§2) — far below the private limit.
	OAuthHourlyLimit int
}

// DefaultConfig matches the study's standard world. The OAuth cap of a
// few actions per hour reflects how tightly the public API restricts
// write actions — the reason every AAS spoofs the private client instead.
func DefaultConfig() Config {
	return Config{GraphWrites: true, PrivateHourlyLimit: 360, OAuthHourlyLimit: 3}
}

// Verdict is a gatekeeper's decision about one request.
type Verdict struct {
	Kind        VerdictKind
	RemoveAfter time.Duration // for VerdictDelayRemove
}

// VerdictKind enumerates countermeasure decisions.
type VerdictKind int

// Verdict kinds.
const (
	VerdictAllow VerdictKind = iota
	VerdictBlock
	// VerdictDelayRemove lets the action through, then the platform
	// undoes it RemoveAfter later. Only follows support removal; for
	// other action types it degrades to allow (§6.1: "it was not possible
	// to apply a delayed countermeasure on likes").
	VerdictDelayRemove
)

// Allow is the zero verdict.
var Allow = Verdict{Kind: VerdictAllow}

// Gatekeeper interposes on every action request. The request is the Event
// that would be emitted, before its Outcome is set.
type Gatekeeper interface {
	Check(req Event) Verdict
}

// GatekeeperFunc adapts a function to the Gatekeeper interface.
type GatekeeperFunc func(req Event) Verdict

// Check implements Gatekeeper.
func (f GatekeeperFunc) Check(req Event) Verdict { return f(req) }

// Platform is the simulated service. It is single-writer and holds no
// locks. Pure queries (Exists, LatestPost, PostAuthor, Posts,
// RecentByTag, …) may run in a step section's plan phase, while
// mutations (registration, login, the Do(Request) action pipeline,
// restore) run only outside any plan phase: in step apply, in scheduler
// callbacks, and at the ingress drain point, all on the world's one
// goroutine. step.Phase enforces the rule in race-detector builds.
type Platform struct {
	cfg   Config
	graph *socialgraph.Graph
	net   *netsim.Registry
	clk   *clock.Clock
	sched *clock.Scheduler

	tags *hashtagIndex

	// accts holds the account records and limiter their rate-limit
	// buckets, both indexed by row AccountID-1. authors maps PostID-1 to
	// the post's author (0 for a deleted author or an unknown post).
	// nextPost is the last post ID minted in stateless (GraphWrites off)
	// mode.
	accts    accountTable
	limiter  hourlyLimiter
	authors  []AccountID
	nextPost uint64

	byUsername map[string]AccountID

	// gate and faults are the enforcement and fault-injection hooks,
	// installed at construction (faults) or between serial experiment
	// phases (gatekeepers).
	gate   Gatekeeper
	faults FaultInjector

	log EventLog

	// enforce tracks the delayed-removal actions scheduled by
	// VerdictDelayRemove that have not fired yet, in scheduling order.
	// Keeping them in a table (the scheduler closure only points into it)
	// is what lets snapshots serialize pending enforcement work.
	enforce []*pendingEnforcement

	// tel holds pre-created instruments (nil = telemetry off). Set once
	// during world construction, before any traffic; see WireTelemetry.
	tel *platformMetrics

	// tracer records per-request spans (nil = tracing off, the cost of
	// one pointer check per request). Set once during world construction,
	// before any traffic; see SetTracer.
	tracer *trace.Tracer

	// phase is the world's plan/apply phase word, checked by every
	// mutator (nil = unchecked); see SetPhase.
	phase *step.Phase
}

// pendingEnforcement is one scheduled delayed-removal (§6.1): the follow
// from→to will be undone at due.
type pendingEnforcement struct {
	from, to AccountID
	due      time.Time
	done     bool
}

// platformMetrics caches one counter per hot-path cell so emission costs
// one array index plus an atomic add — no registry lookups, no locks.
// The instruments are pure observers: they never feed back into request
// handling, so metrics on/off cannot change any event.
type platformMetrics struct {
	// events[type][outcome] counts every emitted event.
	events [int(ActionLogin) + 1][int(OutcomeUnavailable) + 1]*telemetry.Counter

	rateLimited  *telemetry.Counter // ordinary API limit denials
	stormDenied  *telemetry.Counter // denials attributable to a rate-limit storm
	gateChecks   *telemetry.Counter // gatekeeper consultations
	verdictBlock *telemetry.Counter // synchronous blocks issued
	verdictDelay *telemetry.Counter // delayed removals scheduled
	enforcement  *telemetry.Counter // platform-performed removals landed
	duplicates   *telemetry.Counter // allowed structural no-ops
	accounts     *telemetry.Gauge   // live accounts
	logins       *telemetry.Counter
}

// WireTelemetry registers the platform's metric set in reg and starts
// recording. Call during construction, before traffic; a nil registry is
// a no-op (telemetry stays off).
func (p *Platform) WireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m := &platformMetrics{
		rateLimited:  reg.Counter("platform.ratelimit.denied"),
		stormDenied:  reg.Counter("platform.ratelimit.storm_denied"),
		gateChecks:   reg.Counter("platform.gate.checks"),
		verdictBlock: reg.Counter("platform.gate.verdict.block"),
		verdictDelay: reg.Counter("platform.gate.verdict.delay_remove"),
		enforcement:  reg.Counter("platform.enforcement.removals"),
		duplicates:   reg.Counter("platform.events.duplicate"),
		accounts:     reg.Gauge("platform.accounts.live"),
		logins:       reg.Counter("platform.logins"),
	}
	for t := ActionLike; t <= ActionLogin; t++ {
		for o := OutcomeAllowed; o <= OutcomeUnavailable; o++ {
			m.events[t][o] = reg.Counter("platform.events." + t.String() + "." + o.String())
		}
	}
	p.tel = m
}

// SetTracer installs the span tracer. Call during construction, before
// traffic; nil leaves tracing off. The tracer is a pure observer: it
// never feeds back into request handling, so tracing on/off cannot
// change any event (enforced in internal/simtest).
func (p *Platform) SetTracer(tr *trace.Tracer) { p.tracer = tr }

// SetPhase installs the world's phase word on the platform and its
// graph: every mutator of either checks it (see step.Phase). Call during
// construction; nil, the default, checks nothing.
func (p *Platform) SetPhase(ph *step.Phase) {
	p.phase = ph
	p.graph.SetPhase(ph)
}

// New assembles a platform over the given substrates.
func New(cfg Config, g *socialgraph.Graph, net *netsim.Registry, sched *clock.Scheduler) *Platform {
	return &Platform{
		cfg:        cfg,
		graph:      g,
		net:        net,
		clk:        sched.Clock(),
		sched:      sched,
		tags:       newHashtagIndex(),
		byUsername: make(map[string]AccountID),
	}
}

// NumAccounts reports the number of registered account rows, deleted
// ones included: rows are tombstoned rather than freed, so this is the
// resident table size — the denominator behind the bytes-per-account
// telemetry.
func (p *Platform) NumAccounts() int { return len(p.accts.usernames) }

// Log exposes the event stream for subscribers (detection, monitors).
func (p *Platform) Log() *EventLog { return &p.log }

// Graph exposes the underlying social graph (read access for analyses).
func (p *Platform) Graph() *socialgraph.Graph { return p.graph }

// Net exposes the network registry.
func (p *Platform) Net() *netsim.Registry { return p.net }

// Now returns the current simulated time.
func (p *Platform) Now() time.Time { return p.clk.Now() }

// SetGatekeeper installs gk as the enforcement hook. Passing nil removes
// all countermeasures.
func (p *Platform) SetGatekeeper(gk Gatekeeper) { p.gate = gk }

// RegisterAccount creates an account with the given credentials and profile
// and returns its ID. The homeCountry is where the human behind the account
// usually logs in from.
func (p *Platform) RegisterAccount(username, password string, profile Profile, homeCountry string) (AccountID, error) {
	return p.RegisterAccounts([]Registration{{username, password, profile, homeCountry}})
}

// Registration is one account for RegisterAccounts.
type Registration struct {
	Username, Password string
	Profile            Profile
	HomeCountry        string
}

// RegisterAccounts registers each account in regs in order, as one
// RegisterAccount call each would, and returns the first one's ID; the
// rest follow it densely. Each account's initial photos exist as posts,
// and the batch's photo lists are cut from one array. It stops at the
// first taken username and returns its error, with the accounts listed
// before it registered.
func (p *Platform) RegisterAccounts(regs []Registration) (AccountID, error) {
	p.phase.CheckWrite("platform.RegisterAccount")
	photos := 0
	for i := range regs {
		photos += max(regs[i].Profile.PhotoCount, 0)
	}
	backing := make([]PostID, photos)
	var first AccountID
	for i := range regs {
		reg := &regs[i]
		if _, taken := p.byUsername[reg.Username]; taken {
			return first, fmt.Errorf("%w: %q", ErrUsernameTaken, reg.Username)
		}
		now := p.clk.Now()
		id := p.graph.CreateAccount(now)
		if i == 0 {
			first = id
		}
		r := p.accts.add(id, reg.Username, reg.Password, reg.Profile, reg.HomeCountry, now)
		if k := reg.Profile.PhotoCount; k > 0 {
			posts := backing[:k:k]
			backing = backing[k:]
			p.newPosts(r, posts)
			p.accts.posts[r] = posts
		}
		p.byUsername[reg.Username] = id
		if m := p.tel; m != nil {
			m.accounts.Add(1)
		}
	}
	return first, nil
}

// Grow makes room for n more accounts in the account tables, the
// graph's included, and the username index, so registering them copies
// no column and rehashes no index.
func (p *Platform) Grow(n int) {
	p.accts.reserve(n)
	p.graph.Grow(n)
	if len(p.byUsername) == 0 {
		p.byUsername = make(map[string]AccountID, n)
		return
	}
	names := make(map[string]AccountID, len(p.byUsername)+n)
	maps.Copy(names, p.byUsername)
	p.byUsername = names
}

// addPost creates a post for row r and appends it to the row's list.
func (p *Platform) addPost(r uint32) PostID {
	posts := append(p.accts.posts[r], 0)
	p.newPosts(r, posts[len(posts)-1:])
	p.accts.posts[r] = posts
	return posts[len(posts)-1]
}

// newPosts mints len(pids) posts authored by row r into pids and
// indexes their author. In graph mode pids also becomes the graph's
// post list for the account when it has none (Graph.AddPosts); the
// platform never writes a listed post ID again, so the two tables may
// share the array.
func (p *Platform) newPosts(r uint32, pids []PostID) {
	id := AccountID(r + 1)
	if p.cfg.GraphWrites {
		if err := p.graph.AddPosts(id, p.clk.Now(), pids); err != nil {
			panic(fmt.Sprintf("platform: graph posts for live account: %v", err))
		}
	} else {
		for i := range pids {
			p.nextPost++
			pids[i] = PostID(p.nextPost)
		}
	}
	for _, pid := range pids {
		p.setAuthor(pid, id)
	}
}

// setAuthor records id as pid's author in the dense author index; 0
// clears it. Post IDs are minted densely, so the index grows by one
// cell per post.
func (p *Platform) setAuthor(pid PostID, id AccountID) {
	if n := int(pid) - len(p.authors); n > 0 {
		p.authors = append(p.authors, make([]AccountID, n)...)
	}
	p.authors[pid-1] = id
}

// DeleteAccount removes the account and, per the paper's honeypot protocol,
// all actions to or from it.
func (p *Platform) DeleteAccount(id AccountID) error {
	p.phase.CheckWrite("platform.DeleteAccount")
	r, ok := p.accts.live(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrAccountGone, id)
	}
	p.accts.deleted[r] = true
	p.accts.sessionEpochs[r]++ // revoke sessions
	delete(p.byUsername, p.accts.usernames[r])
	if m := p.tel; m != nil {
		m.accounts.Add(-1)
	}
	for _, pid := range p.accts.posts[r] {
		p.authors[pid-1] = 0
	}
	if p.cfg.GraphWrites {
		return p.graph.DeleteAccount(id)
	}
	return nil
}

// ResetPassword changes the account's password and revokes every live
// session — the user-level remedy for evicting an AAS.
func (p *Platform) ResetPassword(id AccountID, newPassword string) error {
	p.phase.CheckWrite("platform.ResetPassword")
	r, ok := p.accts.live(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrAccountGone, id)
	}
	p.accts.passwords[r] = newPassword
	p.accts.sessionEpochs[r]++
	return nil
}

// Exists reports whether the account is live.
func (p *Platform) Exists(id AccountID) bool {
	_, ok := p.accts.live(id)
	return ok
}

// AccountProfile returns the account's profile.
func (p *Platform) AccountProfile(id AccountID) (Profile, bool) {
	r, ok := p.accts.live(id)
	if !ok {
		return Profile{}, false
	}
	return p.accts.profiles[r], true
}

// Username returns the account's username.
func (p *Platform) Username(id AccountID) (string, bool) {
	r, ok := p.accts.live(id)
	if !ok {
		return "", false
	}
	return p.accts.usernames[r], true
}

// MostFrequentLoginCountry implements the paper's customer-location rule:
// "the most frequent country used to login to the account" (§5.1). The
// second result is false when the account has never logged in. The tally
// is sorted by country, so the first maximum is the tie-break winner
// (smallest country string), matching the historical map-scan rule.
func (p *Platform) MostFrequentLoginCountry(id AccountID) (string, bool) {
	r, ok := p.accts.row(id)
	if !ok {
		return "", false
	}
	best, n := "", 0
	for _, cc := range p.accts.logins[r] {
		if cc.N > n {
			best, n = cc.Country, cc.N
		}
	}
	return best, n > 0
}

// Posts returns the account's post IDs in creation order.
func (p *Platform) Posts(id AccountID) []PostID {
	r, ok := p.accts.live(id)
	if !ok {
		return nil
	}
	return append([]PostID(nil), p.accts.posts[r]...)
}

// LatestPost returns the account's most recent post, if any.
func (p *Platform) LatestPost(id AccountID) (PostID, bool) {
	r, ok := p.accts.live(id)
	if !ok {
		return 0, false
	}
	posts := p.accts.posts[r]
	if len(posts) == 0 {
		return 0, false
	}
	return posts[len(posts)-1], true
}

// PostAuthor resolves a post to its author. ID 0 wraps past every cell.
func (p *Platform) PostAuthor(pid PostID) (AccountID, bool) {
	i := uint64(pid) - 1
	if i >= uint64(len(p.authors)) || p.authors[i] == 0 {
		return 0, false
	}
	return p.authors[i], true
}

// LikeCount returns the number of likes on pid as tracked by the platform
// (valid in both graph and stateless modes).
func (p *Platform) LikeCount(pid PostID) int {
	author, ok := p.PostAuthor(pid)
	if !ok {
		return 0
	}
	if p.cfg.GraphWrites {
		return p.graph.LikeCount(pid)
	}
	if r, ok := p.accts.row(author); ok {
		return p.accts.likeCount(r, pid)
	}
	return 0
}

// ClientInfo describes the client a session presents to the platform.
type ClientInfo struct {
	IP          netip.Addr
	Fingerprint string // e.g. "mobile-official-v12", "mobile-spoof-instalex"
	API         APIKind
}

// Login authenticates and returns a session bound to the client info. The
// login is recorded as an event and feeds geolocation.
func (p *Platform) Login(username, password string, ci ClientInfo) (*Session, error) {
	p.phase.CheckWrite("platform.Login")
	id, ok := p.byUsername[username]
	if !ok {
		return nil, ErrBadCredentials
	}
	var sp *trace.Active
	if tr := p.tracer; tr != nil {
		sp = tr.StartRequest(trace.KindLogin, uint64(id), uint8(ActionLogin))
	}
	r, ok := p.accts.live(id)
	if !ok || p.accts.passwords[r] != password {
		sp.Stage(trace.StageSession, trace.VerdictFail)
		sp.End(uint8(OutcomeFailed), 0, 0, 0)
		return nil, ErrBadCredentials
	}
	sp.Stage(trace.StageSession, trace.VerdictOK)
	// The login's address resolves once: the fault verdict, the
	// geolocation tally, the event and the new session's ASN cache all
	// use this answer.
	gen := p.net.Generation()
	asn, _ := p.net.Lookup(ci.IP)
	if p.faults != nil {
		if d := p.faults.Decide(p.clk.Now(), id, ActionLogin, asn, 0); d.Unavailable {
			// The auth frontend is down: no session, no event, and no
			// geolocation update — the request never reached the app tier.
			sp.Stage(trace.StageFaults, trace.VerdictUnavailable)
			sp.End(uint8(OutcomeUnavailable), 0, 0, uint32(asn))
			return nil, ErrUnavailable
		}
	}
	sp.Stage(trace.StageFaults, trace.VerdictOK)
	if info, ok := p.net.Info(asn); ok && info.Country != "" {
		p.accts.bumpLogin(r, info.Country)
	}
	epoch := p.accts.sessionEpochs[r]

	ev := Event{
		Time: p.clk.Now(), Type: ActionLogin, Actor: id, IP: ci.IP, ASN: asn,
		Client: ci.Fingerprint, API: ci.API, Outcome: OutcomeAllowed,
	}
	p.emitSpan(&ev, sp)
	endSpan(sp, &ev)
	return &Session{p: p, id: id, epoch: epoch, client: ci, asn: asn, asnGen: gen}, nil
}

// emitSpan delivers a finished event, its ASN already resolved by the
// caller, and marks two stages on an in-flight span (nil allowed): the
// telemetry stage covers the counter increments, the emit stage the
// subscriber fan-out. Subscribers may call back into the platform.
func (p *Platform) emitSpan(ev *Event, sp *trace.Active) {
	if m := p.tel; m != nil {
		if int(ev.Type) < len(m.events) && int(ev.Outcome) < len(m.events[0]) {
			m.events[ev.Type][ev.Outcome].Inc()
		}
		if ev.Enforcement {
			m.enforcement.Inc()
		}
		if ev.Duplicate {
			m.duplicates.Inc()
		}
		if ev.Type == ActionLogin {
			m.logins.Inc()
		}
	}
	sp.Stage(trace.StageTelemetry, trace.VerdictOK)
	p.log.emit(ev)
	sp.Stage(trace.StageEmit, trace.VerdictOK)
}

// endSpan closes a request span with the emitted event's terminal
// attribution fields.
func endSpan(sp *trace.Active, ev *Event) {
	sp.End(uint8(ev.Outcome), uint64(ev.Target), uint64(ev.Post), uint32(ev.ASN))
}
