package platform

import (
	"net/netip"
	"time"

	"footsteps/internal/netsim"
	"footsteps/internal/socialgraph"
)

// ActionType enumerates the user-visible actions on the platform. These are
// exactly the action families the studied AASs sell (Table 1), plus the
// login events detection and geolocation rely on.
type ActionType int

// Action types.
const (
	ActionLike ActionType = iota
	ActionFollow
	ActionUnfollow
	ActionComment
	ActionPost
	ActionLogin
)

func (t ActionType) String() string {
	switch t {
	case ActionLike:
		return "like"
	case ActionFollow:
		return "follow"
	case ActionUnfollow:
		return "unfollow"
	case ActionComment:
		return "comment"
	case ActionPost:
		return "post"
	case ActionLogin:
		return "login"
	default:
		return "unknown"
	}
}

// Outcome records what happened to a request.
type Outcome int

// Outcomes.
const (
	// OutcomeAllowed: the action succeeded and is visible.
	OutcomeAllowed Outcome = iota
	// OutcomeBlocked: a countermeasure rejected the action synchronously;
	// the caller observes the failure (the oracle problem of §6.1).
	OutcomeBlocked
	// OutcomeRateLimited: the platform's ordinary API rate limit fired.
	OutcomeRateLimited
	// OutcomeFailed: structural failure (missing target, revoked session).
	OutcomeFailed
	// OutcomeUnavailable: transient infrastructure failure injected by a
	// fault schedule; the request never reached the application tier.
	OutcomeUnavailable
)

func (o Outcome) String() string {
	switch o {
	case OutcomeAllowed:
		return "allowed"
	case OutcomeBlocked:
		return "blocked"
	case OutcomeRateLimited:
		return "rate-limited"
	case OutcomeFailed:
		return "failed"
	case OutcomeUnavailable:
		return "unavailable"
	default:
		return "unknown"
	}
}

// APIKind distinguishes the public OAuth API (heavily rate limited) from
// the private mobile API that AASs spoof (§2).
type APIKind int

// API kinds.
const (
	APIPrivate APIKind = iota // reverse-engineered mobile client API
	APIOAuth                  // public third-party API
)

func (a APIKind) String() string {
	if a == APIOAuth {
		return "oauth"
	}
	return "private"
}

// Event is one platform request, successful or not. Events are the only
// observable record of activity: detection, monitoring, and all analyses
// consume the event stream rather than poking at graph internals.
type Event struct {
	Seq     uint64
	Time    time.Time
	Type    ActionType
	Actor   socialgraph.AccountID
	Target  socialgraph.AccountID // recipient: followee, or post author
	Post    socialgraph.PostID    // for like/comment/post events
	IP      netip.Addr
	ASN     netsim.ASN // IP's owning ASN under the routes at request time
	Client  string     // client fingerprint string
	API     APIKind
	Outcome Outcome
	// Enforcement marks actions the platform itself performed, e.g. the
	// deferred removal of a follow (§6.1). Services' block detectors never
	// see these synchronously.
	Enforcement bool
	// Duplicate marks allowed actions that were structural no-ops (liking
	// an already-liked post, re-following). The request happened — abuse
	// detection counts it — but no notification reaches the target.
	Duplicate bool
}

// EventLog fans events out to subscribers in subscription order. Emission
// is synchronous: by the time Emit returns every subscriber has seen the
// event. The log stores nothing itself; subscribers that need history keep
// their own (see Collector).
//
// Subscribe must complete before the first Emit (wire subscribers during
// world construction). Subscribers must not Emit re-entrantly; reactions to
// an event — organic reciprocation, countermeasure cleanup — are scheduled
// on the simulation clock instead, which also matches reality: nobody
// reciprocates a follow in the same instant it lands.
type EventLog struct {
	subs []func(Event)
	seq  uint64
}

// Subscribe registers fn for all future events.
func (l *EventLog) Subscribe(fn func(Event)) { l.subs = append(l.subs, fn) }

// Emit assigns the event a sequence number and delivers it.
func (l *EventLog) Emit(ev Event) { l.emit(&ev) }

// emit is Emit on the caller's event: it stamps ev.Seq in place, so the
// platform's pipeline hands its event over without copying it. Each
// subscriber still receives its own copy.
func (l *EventLog) emit(ev *Event) {
	l.seq++
	ev.Seq = l.seq
	for _, fn := range l.subs {
		fn(*ev)
	}
}

// Seq returns the number of events emitted so far.
func (l *EventLog) Seq() uint64 { return l.seq }

// RestoreSeq sets the sequence counter so the next emitted event gets
// sequence n+1. The snapshot/restore path uses it to keep event numbering
// continuous across a resume: a restored world's first event must carry
// the sequence the straight-through run would have assigned.
func (l *EventLog) RestoreSeq(n uint64) { l.seq = n }

// Collector is a convenience subscriber that retains matching events.
// Filter may be nil to keep everything. Use only where volume is bounded
// (honeypot studies, tests); the 90-day business simulations aggregate
// on the fly instead.
type Collector struct {
	Filter func(Event) bool
	Events []Event
}

// Attach subscribes the collector to the log and returns it.
func (c *Collector) Attach(l *EventLog) *Collector {
	l.Subscribe(func(ev Event) {
		if c.Filter == nil || c.Filter(ev) {
			c.Events = append(c.Events, ev)
		}
	})
	return c
}
