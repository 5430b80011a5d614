// Package behavior models the organic side of the platform: the ordinary
// users whose natural reciprocity the Reciprocity Abuse services harvest.
//
// Each organic member has a profile with nominal degrees (followers and
// followees — the quantities behind Figures 3 and 4) and per-channel
// reciprocation probabilities: like→like, like→follow, and follow→follow.
// The paper measured follow→like reciprocation to be exactly zero ("users
// never reciprocate with likes when followed"), and the model hard-codes
// that.
//
// Members react to notifications: when an allowed like or follow event
// targets a member, the member may — after a human-scale random delay —
// issue a reciprocal action from their own session. Lived-in actors earn
// higher response rates than empty ones (Table 5), which the model applies
// as a multiplier read from the actor's platform profile.
//
// Curated pools. The services do not spray actions at random users; they
// curate recipients likely to reciprocate (§5.3). AddCuratedPool creates a
// designated subpopulation drawn from a service-specific PoolSpec — higher
// response rates, higher out-degree, lower in-degree — modeling the curated
// lists the services maintain. The degree bias of Figures 3/4 then falls
// out of comparing pool members against the general population.
package behavior

import (
	"fmt"
	"math"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/step"
)

// Profile describes one organic member.
type Profile struct {
	ID      platform.AccountID
	Country string
	// Nominal degrees: the size of the member's organic neighborhood.
	// These drive Figures 3/4; actual graph edges are created only by
	// simulated actions.
	OutDeg int // accounts this member follows ("following")
	InDeg  int // accounts following this member ("followers")
	// Reciprocation probabilities per received action, for an empty
	// (non-lived-in) actor. Lived-in actors get the model multipliers.
	LikeToLike     float64
	LikeToFollow   float64
	FollowToFollow float64
}

// Model holds the population-wide behavioral constants.
type Model struct {
	// LivedInLikeMult scales like-channel reciprocation when the actor's
	// account is lived-in (Table 5: 1.6×–2.6× observed; default 2.1).
	LivedInLikeMult float64
	// LivedInFollowMult scales follow→follow reciprocation for lived-in
	// actors (Table 5: ~1.1×–1.25×; default 1.18).
	LivedInFollowMult float64
	// MeanReactionDelay is the mean of the exponential delay between a
	// notification and the reciprocal action.
	MeanReactionDelay time.Duration
	// MaxReactionDelay caps the delay.
	MaxReactionDelay time.Duration
}

// DefaultModel returns the calibrated behavioral constants.
func DefaultModel() Model {
	return Model{
		LivedInLikeMult:   2.1,
		LivedInFollowMult: 1.18,
		MeanReactionDelay: 6 * time.Hour,
		MaxReactionDelay:  48 * time.Hour,
	}
}

// PoolSpec parameterizes a curated target pool: the response rates the
// paper measured per service (Table 5, empty-account rows) and the degree
// profile of the accounts the service targets (Figures 3/4 medians).
type PoolSpec struct {
	// Mean reciprocation probabilities for empty actors.
	LikeToLike     float64
	LikeToFollow   float64
	FollowToFollow float64
	// Median nominal degrees of pool members.
	OutDegMedian float64
	InDegMedian  float64
	// Countries pool members live in, with weights. Empty means USA.
	Countries []CountryWeight
}

// CountryWeight weights one country in a pool's membership.
type CountryWeight struct {
	Country string
	Weight  float64
}

// GeneralSpec describes the broad population baseline: lower responsiveness
// than any curated pool, degree medians matching the random-account samples
// in Figures 3/4 (out 465, in 796).
func GeneralSpec() PoolSpec {
	return PoolSpec{
		LikeToLike:     0.006,
		LikeToFollow:   0.0005,
		FollowToFollow: 0.035,
		OutDegMedian:   465,
		InDegMedian:    796,
	}
}

// degreeSigma is the log-normal shape for nominal degrees; 1.1 gives the
// heavy tail typical of social networks.
const degreeSigma = 1.1

// rateJitterSigma is the log-normal shape of per-member response-rate
// noise around the pool mean.
const rateJitterSigma = 0.35

// Population is the organic user population. Construct with New, grow with
// AddMembers/AddCuratedPool, then Wire it to a platform.
type Population struct {
	model    Model
	plat     *platform.Platform
	sched    *clock.Scheduler
	net      *netsim.Registry
	rng      *rng.RNG
	homeASNs []netsim.ASN // residential ASNs for member logins, by country

	members  map[platform.AccountID]*member
	ids      []platform.AccountID
	general  []platform.AccountID // members outside any curated pool
	pools    map[string][]platform.AccountID
	nextName int

	// steps is the engine the daily posting sections run on.
	steps *step.Engine

	// Reusable daily-posting intent buffer; see docs/PERFORMANCE.md.
	// noReuse restores fresh per-day allocations for the simtest pooling
	// property test.
	postBuf step.Buffer[*member]
	noReuse bool

	// Reacted counts reciprocal actions issued, by channel, for tests and
	// diagnostics.
	Reacted map[string]int

	// reactions tracks scheduled-but-unfired reciprocal actions in
	// scheduling order; the scheduler closures only point into it, so
	// snapshots can serialize pending reactions. Touched only from the
	// single-threaded event-subscriber/scheduler path.
	reactions []*pendingReaction
}

// pendingReaction is one scheduled reciprocal action: member will react
// to actor with action at due.
type pendingReaction struct {
	member  platform.AccountID
	actor   platform.AccountID
	action  platform.ActionType
	channel string
	due     time.Time
	done    bool
}

type member struct {
	profile Profile
	session *platform.Session
	tag     string // hashtag interest, set by TagPool
	// tags is the cached one-element Tags payload for the member's
	// posts, built once in TagPool so the daily posting path does not
	// allocate a fresh slice per post.
	tags []string

	// rng is the member's private stream, forked at creation, so daily
	// posting decisions do not depend on who else plans in the section.
	rng *rng.RNG
}

// New creates an empty population using the given model.
func New(model Model, plat *platform.Platform, sched *clock.Scheduler, r *rng.RNG) *Population {
	p := &Population{
		model:   model,
		plat:    plat,
		sched:   sched,
		net:     plat.Net(),
		rng:     r,
		members: make(map[platform.AccountID]*member),
		pools:   make(map[string][]platform.AccountID),
		Reacted: make(map[string]int),
	}
	p.homeASNs = p.net.ByKind(netsim.KindResidential)
	if len(p.homeASNs) == 0 {
		panic("behavior: platform network has no residential ASNs for organic users")
	}
	return p
}

// SetStepEngine installs the engine the daily posting sections run on.
func (p *Population) SetStepEngine(e *step.Engine) { p.steps = e }

// SetScratchReuse toggles cross-day reuse of the posting scratch
// buffers (on by default; reuse never changes the event stream).
func (p *Population) SetScratchReuse(on bool) { p.noReuse = !on }

// AddMembers grows the general population by n members drawn from
// GeneralSpec and returns their IDs.
func (p *Population) AddMembers(n int) []platform.AccountID {
	ids := p.addFromSpec("general", GeneralSpec(), n)
	p.general = append(p.general, ids...)
	return ids
}

// AddCuratedPool creates a curated pool named label with n members drawn
// from spec and returns their IDs. The pool is also retrievable via Pool.
func (p *Population) AddCuratedPool(label string, spec PoolSpec, n int) []platform.AccountID {
	ids := p.addFromSpec(label, spec, n)
	p.pools[label] = ids
	return ids
}

// ReserveMembers stands in for AddMembers when a world is rebuilt to
// restore a snapshot: it reserves the n members' account IDs (see
// platform.ReserveAccounts) and lists them as AddMembers would, but
// draws no profile, registers no username and mints no photo posts —
// the snapshot's population overwrites all of that (Commit).
func (p *Population) ReserveMembers(n int) []platform.AccountID {
	ids := p.reserve(n)
	p.general = append(p.general, ids...)
	return ids
}

// ReserveCuratedPool is ReserveMembers for AddCuratedPool.
func (p *Population) ReserveCuratedPool(label string, n int) []platform.AccountID {
	ids := p.reserve(n)
	p.pools[label] = ids
	return ids
}

func (p *Population) reserve(n int) []platform.AccountID {
	first := p.plat.ReserveAccounts(n)
	ids := make([]platform.AccountID, n)
	for i := range ids {
		ids[i] = first + platform.AccountID(i)
	}
	p.ids = append(p.ids, ids...)
	return ids
}

// Pool returns the members of a curated pool.
func (p *Population) Pool(label string) []platform.AccountID {
	return append([]platform.AccountID(nil), p.pools[label]...)
}

func (p *Population) addFromSpec(label string, spec PoolSpec, n int) []platform.AccountID {
	ids := make([]platform.AccountID, 0, n)
	for i := 0; i < n; i++ {
		p.nextName++
		country := p.pickCountry(spec.Countries)
		prof := Profile{
			Country:        country,
			OutDeg:         degreeFromMedian(p.rng, spec.OutDegMedian),
			InDeg:          degreeFromMedian(p.rng, spec.InDegMedian),
			LikeToLike:     jitterRate(p.rng, spec.LikeToLike),
			LikeToFollow:   jitterRate(p.rng, spec.LikeToFollow),
			FollowToFollow: jitterRate(p.rng, spec.FollowToFollow),
		}
		username := fmt.Sprintf("org-%s-%d", label, p.nextName)
		// Organic members keep modest profiles: a couple of photos so
		// their posts can receive likes.
		id, err := p.plat.RegisterAccount(username, "pw-"+username, platform.Profile{
			PhotoCount: 1 + p.rng.Intn(3), HasProfilePic: true, HasBio: true, HasName: true,
		}, country)
		if err != nil {
			panic(fmt.Sprintf("behavior: register organic member: %v", err))
		}
		prof.ID = id
		p.members[id] = &member{profile: prof, rng: p.rng.Fork(uint64(p.nextName))}
		p.ids = append(p.ids, id)
		ids = append(ids, id)
	}
	return ids
}

func (p *Population) pickCountry(ws []CountryWeight) string {
	if len(ws) == 0 {
		return "USA"
	}
	var total float64
	for _, w := range ws {
		total += w.Weight
	}
	x := p.rng.Float64() * total
	for _, w := range ws {
		if x < w.Weight {
			return w.Country
		}
		x -= w.Weight
	}
	return ws[len(ws)-1].Country
}

// degreeFromMedian draws a log-normal degree whose median is the given
// value (median of LogNormal(mu, sigma) is exp(mu)).
func degreeFromMedian(r *rng.RNG, median float64) int {
	if median <= 0 {
		return 0
	}
	return int(r.LogNormal(math.Log(median), degreeSigma))
}

// jitterRate scatters a mean probability across members while keeping the
// population mean close to the target: log-normal noise with mean 1.
func jitterRate(r *rng.RNG, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	// E[LogNormal(mu, s)] = exp(mu + s²/2); choose mu = -s²/2 for mean 1.
	noise := r.LogNormal(-rateJitterSigma*rateJitterSigma/2, rateJitterSigma)
	v := mean * noise
	if v > 1 {
		v = 1
	}
	return v
}

// Size returns the number of members.
func (p *Population) Size() int { return len(p.ids) }

// Members returns all member IDs in creation order.
func (p *Population) Members() []platform.AccountID {
	return append([]platform.AccountID(nil), p.ids...)
}

// IsMember reports whether id belongs to the population.
func (p *Population) IsMember(id platform.AccountID) bool {
	_, ok := p.members[id]
	return ok
}

// Profile returns the member's profile.
func (p *Population) Profile(id platform.AccountID) (Profile, bool) {
	m, ok := p.members[id]
	if !ok {
		return Profile{}, false
	}
	return m.profile, true
}

// RandomSample returns k distinct member IDs drawn uniformly from the
// general population — the "1,000 random Instagram accounts" baseline of
// Figures 3/4. Curated pool members are excluded: on the real platform
// AAS-targeted users are a vanishing fraction of all accounts, but in a
// scaled world they would otherwise dominate the sample.
func (p *Population) RandomSample(k int) []platform.AccountID {
	frame := p.general
	if len(frame) == 0 {
		frame = p.ids
	}
	idx := p.rng.Sample(len(frame), k)
	out := make([]platform.AccountID, len(idx))
	for i, j := range idx {
		out[i] = frame[j]
	}
	return out
}

// Wire subscribes the population to the platform's event stream so members
// react to inbound likes and follows. Call exactly once, after all event
// consumers that must see events earlier are attached.
func (p *Population) Wire() {
	p.plat.Log().Subscribe(func(ev platform.Event) {
		if ev.Outcome != platform.OutcomeAllowed || ev.Enforcement || ev.Duplicate {
			return
		}
		if ev.Type != platform.ActionLike && ev.Type != platform.ActionFollow {
			return
		}
		m, ok := p.members[ev.Target]
		if !ok || ev.Actor == ev.Target {
			return
		}
		p.maybeReciprocate(m, ev)
	})
}

func (p *Population) maybeReciprocate(m *member, ev platform.Event) {
	livedIn := false
	if prof, ok := p.plat.AccountProfile(ev.Actor); ok {
		livedIn = prof.LivedIn()
	}
	likeMult, followMult := 1.0, 1.0
	if livedIn {
		likeMult = p.model.LivedInLikeMult
		followMult = p.model.LivedInFollowMult
	}

	switch ev.Type {
	case platform.ActionLike:
		if p.rng.Bool(m.profile.LikeToLike * likeMult) {
			p.scheduleReaction(m, ev.Actor, platform.ActionLike, "like->like")
		}
		if p.rng.Bool(m.profile.LikeToFollow * likeMult) {
			p.scheduleReaction(m, ev.Actor, platform.ActionFollow, "like->follow")
		}
	case platform.ActionFollow:
		// follow→like never happens (Table 5: 0.0% across all cells).
		if p.rng.Bool(m.profile.FollowToFollow * followMult) {
			p.scheduleReaction(m, ev.Actor, platform.ActionFollow, "follow->follow")
		}
	}
}

func (p *Population) scheduleReaction(m *member, actor platform.AccountID, action platform.ActionType, channel string) {
	delay := time.Duration(p.rng.ExpFloat64() * float64(p.model.MeanReactionDelay))
	if delay > p.model.MaxReactionDelay {
		delay = p.model.MaxReactionDelay
	}
	if delay < time.Minute {
		delay = time.Minute
	}
	// The reaction lives in a table entry rather than closure captures so
	// snapshots can serialize it; the scheduled callback only points at
	// the entry. Same instant, same draws, same event.
	e := &pendingReaction{
		member: m.profile.ID, actor: actor, action: action,
		channel: channel, due: p.sched.Clock().Now().Add(delay),
	}
	p.reactions = append(p.reactions, e)
	p.sched.After(delay, func() { p.fireReaction(e) })
}

// fireReaction executes one scheduled reciprocal action and retires its
// table entry. Runs on the scheduler goroutine.
func (p *Population) fireReaction(e *pendingReaction) {
	e.done = true
	for i, pe := range p.reactions {
		if pe == e {
			p.reactions = append(p.reactions[:i], p.reactions[i+1:]...)
			break
		}
	}
	m, ok := p.members[e.member]
	if !ok {
		return
	}
	sess := p.session(m)
	if sess == nil {
		return
	}
	switch e.action {
	case platform.ActionLike:
		pid, ok := p.plat.LatestPost(e.actor)
		if !ok {
			return
		}
		if resp := sess.Do(platform.Request{Action: platform.ActionLike, Post: pid}); resp.Err != nil {
			return
		}
	case platform.ActionFollow:
		if resp := sess.Do(platform.Request{Action: platform.ActionFollow, Target: e.actor}); resp.Err != nil {
			return
		}
	}
	p.Reacted[e.channel]++
}

// session lazily logs the member in from a home-country residential IP.
func (p *Population) session(m *member) *platform.Session {
	if m.session != nil {
		return m.session
	}
	asn := p.homeASNFor(m.profile.Country)
	username, ok := p.plat.Username(m.profile.ID)
	if !ok {
		return nil
	}
	sess, err := p.plat.Login(username, "pw-"+username, platform.ClientInfo{
		IP:          p.net.Allocate(asn),
		Fingerprint: "mobile-official",
		API:         platform.APIPrivate,
	})
	if err != nil {
		return nil
	}
	m.session = sess
	return sess
}

func (p *Population) homeASNFor(country string) netsim.ASN {
	var candidates []netsim.ASN
	for _, a := range p.homeASNs {
		if info, ok := p.net.Info(a); ok && info.Country == country {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		candidates = p.homeASNs
	}
	return candidates[p.rng.Intn(len(candidates))]
}

// OutDegrees returns the nominal out-degrees of the given accounts —
// the Figure 3 sample extractor.
func (p *Population) OutDegrees(ids []platform.AccountID) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if m, ok := p.members[id]; ok {
			out = append(out, m.profile.OutDeg)
		}
	}
	return out
}

// InDegrees returns the nominal in-degrees of the given accounts —
// the Figure 4 sample extractor.
func (p *Population) InDegrees(ids []platform.AccountID) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if m, ok := p.members[id]; ok {
			out = append(out, m.profile.InDeg)
		}
	}
	return out
}

// TagPool hashtags an existing curated pool: each member's newest seed
// photo is tagged with one of the given hashtags, and the member remembers
// the tag for future posts. This builds the discovery surface customers
// point their AAS at when they supply hashtag lists (§3.3.1).
func (p *Population) TagPool(label string, tags ...string) {
	if len(tags) == 0 {
		return
	}
	for _, id := range p.pools[label] {
		m := p.members[id]
		if m == nil {
			continue
		}
		m.tag = tags[p.rng.Intn(len(tags))]
		m.tags = []string{m.tag}
		posts := p.plat.Posts(id)
		if len(posts) > 0 {
			p.plat.TagPost(id, posts[len(posts)-1], m.tag)
		}
	}
}

// StartPosting schedules organic posting for a pool's members: each day,
// each member posts with probability dailyProb, tagged with their
// interest. Fresh posts keep the hashtag discovery surface churning the
// way a live feed does.
func (p *Population) StartPosting(label string, days int, dailyProb float64) {
	ids := p.pools[label]
	if len(ids) == 0 {
		return
	}
	p.sched.EveryDay(13*time.Hour+30*time.Minute, days, func(int) {
		// Plan phase: each member's post decision comes from their own
		// stream; the posts — which mutate the platform and may lazily log
		// the member in — apply in member order.
		var buf *step.Buffer[*member]
		if !p.noReuse {
			buf = &p.postBuf
		}
		step.RunInto(p.steps, buf, len(ids), func(i int, emit func(*member)) {
			if m := p.members[ids[i]]; m != nil && m.rng.Bool(dailyProb) {
				emit(m)
			}
		}, func(m *member) {
			sess := p.session(m)
			if sess == nil {
				return
			}
			if m.tag != "" {
				sess.Do(platform.Request{Action: platform.ActionPost, Tags: m.tags})
			} else {
				sess.Do(platform.Request{Action: platform.ActionPost})
			}
		})
	})
}
