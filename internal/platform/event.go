package platform

import (
	"net/netip"
	"sync"
	"sync/atomic"
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

// EventLog fans events out to two kinds of subscriber.
//
// Subscribe registers a synchronous subscriber: by the time Emit returns
// it has seen the event, on the emitting (world) goroutine. A subscriber
// that reads or writes world-owned state must be one of these.
//
// Fold registers a read-only fold: it sees the same events in the same
// order, but in batches, on a fold goroutine of the log's own. While any
// fold is registered, emit copies each event once into an open batch; a
// full batch (foldBatchLen events) goes over a bounded queue to the fold
// goroutine, which runs every fold over it in registration order. The
// emitting goroutine blocks when the queue is full. A fold may read only
// the events it is handed and state that nothing writes while the world
// runs (a trained classifier, say); it may write only its own state and
// atomic telemetry counters, and must not keep or modify the batch, which
// is reused. Sync is the barrier: it hands over the
// partial batch and returns once every event emitted so far has been
// folded, so fold state may be read on the world goroutine after Sync
// until the next Emit. The fold goroutine exits each time its queue
// drains, so none outlives a Sync or a dropped log; a log with no folds
// never starts one.
//
// Call Subscribe, Fold and Sync on the emitting goroutine. Subscribers
// and folds must not Emit re-entrantly, so emission order is Seq order;
// reactions to an event — organic reciprocation, countermeasure cleanup —
// are scheduled on the simulation clock instead, which also matches
// reality: nobody reciprocates a follow in the same instant it lands.
type EventLog struct {
	subs []func(Event)
	seq  uint64

	folds   []func([]Event)
	loop    func()         // foldLoop bound once: go l.loop() allocates nothing
	batch   []Event        // the open batch; allocated by the first Fold
	queue   chan []Event   // full batches on their way to the fold goroutine
	spare   chan []Event   // folded batches, back for reuse
	pending atomic.Int32   // batches handed over and not yet folded
	folded  sync.WaitGroup // one count per pending batch, for Sync
}

// foldBatchLen is the number of events a full fold batch carries, and
// foldQueueLen the number of full batches that may wait for the fold
// goroutine: two let the folds fall a batch behind a burst of events
// without stalling the world goroutine, while bounding the memory held.
// At most foldQueueLen+2 batches exist: the open one, the queued ones
// and the one being folded.
const (
	foldBatchLen = 1024
	foldQueueLen = 2
)

// Subscribe registers fn for all future events.
func (l *EventLog) Subscribe(fn func(Event)) { l.subs = append(l.subs, fn) }

// Fold registers fn to fold every future event, in batches, on the fold
// goroutine. It syncs first, so fn sees exactly the events emitted after
// it was registered.
func (l *EventLog) Fold(fn func([]Event)) {
	l.Sync()
	if l.folds == nil {
		l.loop = l.foldLoop
		l.batch = make([]Event, 0, foldBatchLen)
		l.queue = make(chan []Event, foldQueueLen)
		l.spare = make(chan []Event, foldQueueLen+1)
	}
	l.folds = append(l.folds, fn)
}

// Sync hands the open batch to the fold goroutine and waits until every
// event emitted so far has been folded. It is a no-op on a log with no
// folds.
func (l *EventLog) Sync() {
	if len(l.batch) > 0 {
		l.handoff()
	}
	l.folded.Wait()
}

// Emit assigns the event a sequence number and delivers it.
func (l *EventLog) Emit(ev Event) { l.emit(&ev) }

// emit is Emit on the caller's event: it stamps ev.Seq in place, so the
// platform's pipeline hands its event over without copying it. Each
// subscriber still receives its own copy; the folds share one, in the
// open batch.
func (l *EventLog) emit(ev *Event) {
	l.seq++
	ev.Seq = l.seq
	for _, fn := range l.subs {
		fn(*ev)
	}
	if l.folds != nil {
		l.batch = append(l.batch, *ev)
		if len(l.batch) == foldBatchLen {
			l.handoff()
		}
	}
}

// handoff queues the open batch for the folds, starting the fold
// goroutine if it has exited, and opens a fresh batch, reusing a folded
// one when there is one.
func (l *EventLog) handoff() {
	l.folded.Add(1)
	if l.pending.Add(1) == 1 {
		go l.loop()
	}
	l.queue <- l.batch
	select {
	case l.batch = <-l.spare:
	default:
		l.batch = make([]Event, 0, foldBatchLen)
	}
}

// foldLoop runs every fold over each queued batch, and returns once no
// handed-over batch is left to fold.
func (l *EventLog) foldLoop() {
	for {
		b := <-l.queue
		for _, fn := range l.folds {
			fn(b)
		}
		l.spare <- b[:0] // never blocks: spare has room for every batch but the open one
		l.folded.Done()
		if l.pending.Add(-1) == 0 {
			return
		}
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
