package detection

import (
	"math"
	"sort"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

// numActionTypes bounds the per-day tally arrays. ActionLogin is never
// tallied (logins only enroll), but keeping the full enum width keeps
// indexing branch-free.
const numActionTypes = int(platform.ActionLogin) + 1

// DayCounts is one day's per-type action tally. AccountActivity stores
// them in slices sorted by ascending Day — 28 bytes per active day,
// versus a nested map[int]map[ActionType]int that cost two map headers
// plus per-entry overhead for the same information.
type DayCounts struct {
	Day int32
	N   [numActionTypes]int32
}

// Total sums the day's actions across types.
func (d *DayCounts) Total() int {
	t := 0
	for _, n := range d.N {
		t += int(n)
	}
	return t
}

// postCount is one touched post's inbound like tally, sorted by pid.
type postCount struct {
	pid uint32
	n   int32
}

// AccountActivity is everything the platform knows about one AAS customer
// account's involvement with one service over the measurement window.
type AccountActivity struct {
	Account platform.AccountID
	// Daily holds outbound actions driven by the service, one record per
	// active day, sorted by ascending day index.
	Daily []DayCounts
	// InboundDaily holds inbound actions delivered by the service to this
	// account (collusion networks), same layout as Daily.
	InboundDaily []DayCounts

	// Per-post inbound like bookkeeping for the Hublaagram revenue model:
	// totals (sorted by post ID), and the peak observed in any single hour.
	postLikes      []postCount
	PeakHourlyLike int

	curHourPost  platform.PostID
	curHour      int64
	curHourCount int

	// targeted marks the account as in its service's target sample
	// frame; see Targeted.
	targeted bool

	// dayScratch backs MaxConsecutiveDays' AppendActiveDays call so the
	// per-account statistic costs no allocation after the first query.
	dayScratch []int
}

// Targeted reports whether the account is in its service's target
// sample frame: it received attributed actions, and was among the
// service's first targetCap accounts to do so.
func (a *AccountActivity) Targeted() bool { return a.targeted }

// bumpDay adds n to the (day, t) tally in *days. Events arrive in time
// order, so the hot paths are "same day as the last record" and "a later
// day" — both O(1); out-of-order days (test fixtures, merged windows)
// fall back to a sorted insert.
func bumpDay(days *[]DayCounts, day int, t platform.ActionType, n int) {
	s := *days
	if len(s) > 0 {
		if last := &s[len(s)-1]; int(last.Day) == day {
			last.N[t] += int32(n)
			return
		} else if int(last.Day) < day {
			var dc DayCounts
			dc.Day = int32(day)
			dc.N[t] = int32(n)
			*days = append(s, dc)
			return
		}
	} else {
		var dc DayCounts
		dc.Day = int32(day)
		dc.N[t] = int32(n)
		*days = append(s, dc)
		return
	}
	i := sort.Search(len(s), func(i int) bool { return int(s[i].Day) >= day })
	if i < len(s) && int(s[i].Day) == day {
		s[i].N[t] += int32(n)
		return
	}
	s = append(s, DayCounts{})
	copy(s[i+1:], s[i:])
	s[i].Day = int32(day)
	s[i].N = [numActionTypes]int32{}
	s[i].N[t] = int32(n)
	*days = s
}

// AddOutbound adds n service-driven actions of type t on the given day.
func (a *AccountActivity) AddOutbound(day int, t platform.ActionType, n int) {
	bumpDay(&a.Daily, day, t, n)
}

// AddInbound adds n service-delivered actions of type t on the given day.
func (a *AccountActivity) AddInbound(day int, t platform.ActionType, n int) {
	bumpDay(&a.InboundDaily, day, t, n)
}

// AddPostLikes adds n inbound likes to the tally for post pid.
func (a *AccountActivity) AddPostLikes(pid platform.PostID, n int) {
	if uint64(pid) > math.MaxUint32 {
		panic("detection: post ID exceeds uint32 range")
	}
	p := uint32(pid)
	s := a.postLikes
	if len(s) > 0 && s[len(s)-1].pid < p {
		a.postLikes = append(s, postCount{pid: p, n: int32(n)})
		return
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].pid >= p })
	if i < len(s) && s[i].pid == p {
		s[i].n += int32(n)
		return
	}
	s = append(s, postCount{})
	copy(s[i+1:], s[i:])
	s[i] = postCount{pid: p, n: int32(n)}
	a.postLikes = s
}

// PostLikeCount returns the inbound like total for post pid.
func (a *AccountActivity) PostLikeCount(pid platform.PostID) int {
	s := a.postLikes
	i := sort.Search(len(s), func(i int) bool { return uint64(s[i].pid) >= uint64(pid) })
	if i < len(s) && uint64(s[i].pid) == uint64(pid) {
		return int(s[i].n)
	}
	return 0
}

// AppendActiveDays appends the sorted active-day indices to dst and
// returns the extended slice. Report generators that query thousands of
// accounts pass a reused buffer instead of allocating per account. Both
// source slices are already sorted, so this is a plain two-way merge —
// no intermediate set, no sort.
func (a *AccountActivity) AppendActiveDays(dst []int) []int {
	i, j := 0, 0
	for i < len(a.Daily) && j < len(a.InboundDaily) {
		di, dj := a.Daily[i].Day, a.InboundDaily[j].Day
		switch {
		case di < dj:
			dst = append(dst, int(di))
			i++
		case dj < di:
			dst = append(dst, int(dj))
			j++
		default:
			dst = append(dst, int(di))
			i++
			j++
		}
	}
	for ; i < len(a.Daily); i++ {
		dst = append(dst, int(a.Daily[i].Day))
	}
	for ; j < len(a.InboundDaily); j++ {
		dst = append(dst, int(a.InboundDaily[j].Day))
	}
	return dst
}

// MaxConsecutiveDays returns the length of the longest run of consecutive
// active days — the quantity behind the long-term/short-term split (§5.1).
func (a *AccountActivity) MaxConsecutiveDays() int {
	days := a.AppendActiveDays(a.dayScratch[:0])
	a.dayScratch = days
	if len(days) == 0 {
		return 0
	}
	best, run := 1, 1
	for i := 1; i < len(days); i++ {
		if days[i] == days[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run > best {
			best = run
		}
	}
	return best
}

// HasOutbound reports whether the service ever drove actions FROM this
// account. Reciprocity-service targets have inbound only and are not
// customers; collusion-network participants are customers either way.
func (a *AccountActivity) HasOutbound() bool {
	for i := range a.Daily {
		for _, n := range a.Daily[i].N {
			if n > 0 {
				return true
			}
		}
	}
	return false
}

// TotalOutbound sums outbound actions of type t.
func (a *AccountActivity) TotalOutbound(t platform.ActionType) int {
	n := 0
	for i := range a.Daily {
		n += int(a.Daily[i].N[t])
	}
	return n
}

// TotalOutboundAll sums outbound actions across every type.
func (a *AccountActivity) TotalOutboundAll() int {
	n := 0
	for i := range a.Daily {
		n += a.Daily[i].Total()
	}
	return n
}

// TotalInbound sums inbound actions of type t.
func (a *AccountActivity) TotalInbound(t platform.ActionType) int {
	n := 0
	for i := range a.InboundDaily {
		n += int(a.InboundDaily[i].N[t])
	}
	return n
}

// OutboundOnDay returns the outbound count of type t on the given day.
func (a *AccountActivity) OutboundOnDay(day int, t platform.ActionType) int {
	s := a.Daily
	i := sort.Search(len(s), func(i int) bool { return int(s[i].Day) >= day })
	if i < len(s) && int(s[i].Day) == day {
		return int(s[i].N[t])
	}
	return 0
}

// MedianLikesPerPost returns the median of inbound like totals across the
// account's touched posts (the Hublaagram tiering statistic).
func (a *AccountActivity) MedianLikesPerPost() float64 {
	if len(a.postLikes) == 0 {
		return 0
	}
	vals := make([]int, 0, len(a.postLikes))
	for _, pc := range a.postLikes {
		vals = append(vals, int(pc.n))
	}
	sort.Ints(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return float64(vals[mid])
	}
	return float64(vals[mid-1]+vals[mid]) / 2
}

// PostsWithAtLeast counts touched posts with at least n service likes.
func (a *AccountActivity) PostsWithAtLeast(n int) int {
	c := 0
	for _, pc := range a.postLikes {
		if int(pc.n) >= n {
			c++
		}
	}
	return c
}

// ServiceActivity aggregates everything attributed to one AAS label.
type ServiceActivity struct {
	Label string
	// rows addresses the service-driven activity per account by ID:
	// rows[id] is nil until the service touches account id. For
	// reciprocity services the customer is the actor; for collusion
	// networks every actor is a customer and every target is too.
	// Account IDs are minted densely from 1, so a lookup is a bounds
	// check, not a hash probe.
	rows []*AccountActivity
	// accounts holds the same rows in first-seen order.
	accounts []*AccountActivity
	// Actions tallies all attributed outbound actions by type (Table 11).
	Actions [numActionTypes]int
	// targets counts the rows flagged Targeted: distinct accounts that
	// received attributed actions (the Figure 3/4 sample frame).
	// Bounded: sampling flags the first targetCap of them.
	targets int
	// ASNs is the service's observed network footprint (Table 7).
	ASNs map[netsim.ASN]bool
}

// NewServiceActivity returns an empty aggregate for label.
func NewServiceActivity(label string) *ServiceActivity {
	return &ServiceActivity{Label: label, ASNs: make(map[netsim.ASN]bool)}
}

// Account returns the activity row for id, nil when the service never
// touched the account.
func (s *ServiceActivity) Account(id platform.AccountID) *AccountActivity {
	if uint64(id) < uint64(len(s.rows)) {
		return s.rows[id]
	}
	return nil
}

// Accounts returns every account row in first-seen order. The slice is
// the service's own; callers must not modify it.
func (s *ServiceActivity) Accounts() []*AccountActivity { return s.accounts }

// Add returns the activity row for id, adding an empty one when the
// service has not touched the account yet.
func (s *ServiceActivity) Add(id platform.AccountID) *AccountActivity {
	if uint64(id) >= uint64(len(s.rows)) {
		s.rows = append(s.rows, make([]*AccountActivity, int(id)+1-len(s.rows))...)
	} else if a := s.rows[id]; a != nil {
		return a
	}
	a := &AccountActivity{Account: id}
	s.rows[id] = a
	s.accounts = append(s.accounts, a)
	return a
}

// Customers returns the number of distinct accounts seen in the service.
func (s *ServiceActivity) Customers() int { return len(s.accounts) }

// Targets returns the number of accounts in the target sample frame.
func (s *ServiceActivity) Targets() int { return s.targets }

// targetCap bounds the target sample frame.
const targetCap = 100000

// Tracker consumes the event stream and maintains per-service activity.
// It reads only the events and its classifier, so it runs as a fold:
// register its Fold method with the platform log's Fold, and read it only
// after the log's Sync. Observe ingests a single event.
type Tracker struct {
	classifier *Classifier
	// services is indexed like the classifier's labels; nil until the
	// label's first attributed event.
	services []*ServiceActivity
	// startNs is the window start in Unix nanoseconds.
	startNs int64

	telObserved   *telemetry.Counter
	telAttributed *telemetry.Counter
}

// NewTracker builds a tracker over a trained classifier. start anchors day
// indices (usually the measurement window's first instant).
func NewTracker(c *Classifier, start time.Time) *Tracker {
	return &Tracker{classifier: c, startNs: start.UnixNano()}
}

// WireTelemetry registers the tracker's counters on reg: events observed
// (post-filter, i.e. allowed non-enforcement non-duplicate) and events
// attributed to a service label. Telemetry is a pure observer; a nil reg
// leaves the tracker untouched.
func (t *Tracker) WireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t.telObserved = reg.Counter("detection.events.observed")
	t.telAttributed = reg.Counter("detection.events.attributed")
}

// Day converts an event time to a day index relative to the window start,
// truncated toward zero as a Duration quotient is. It reads wall clock
// nanoseconds, which simulated times (built from clock.Epoch) carry
// exactly; it is valid for the years 1678–2262, as UnixNano is.
func (t *Tracker) Day(at time.Time) int {
	return int((at.UnixNano() - t.startNs) / int64(clock.Day))
}

// serviceFor returns the aggregate for the event's fingerprint, creating
// it on the label's first attributed event; nil for unattributed traffic.
// One map probe: the classifier's fingerprint index doubles as the row.
func (t *Tracker) serviceFor(client string) *ServiceActivity {
	i, ok := t.classifier.byFP[client]
	if !ok {
		return nil
	}
	if i >= len(t.services) {
		t.services = append(t.services, make([]*ServiceActivity, i+1-len(t.services))...)
	}
	svc := t.services[i]
	if svc == nil {
		svc = NewServiceActivity(t.classifier.labels[i])
		t.services[i] = svc
	}
	return svc
}

// Observe ingests one platform event. Duplicate no-op actions (re-liking
// a post) count as attempts for attribution purposes but are excluded: the
// platform state did not change.
func (t *Tracker) Observe(ev platform.Event) { t.observe(&ev) }

// Fold ingests a batch of events in order, as Observe would one by one.
func (t *Tracker) Fold(evs []platform.Event) {
	for i := range evs {
		t.observe(&evs[i])
	}
}

func (t *Tracker) observe(ev *platform.Event) {
	if ev.Outcome != platform.OutcomeAllowed || ev.Enforcement || ev.Duplicate {
		return
	}
	t.telObserved.Inc()
	svc := t.serviceFor(ev.Client)
	if svc == nil {
		return
	}
	t.telAttributed.Inc()
	if !svc.ASNs[ev.ASN] {
		svc.ASNs[ev.ASN] = true
	}
	if ev.Type == platform.ActionLogin {
		// Service logins mark the account as enrolled but are not actions.
		svc.Add(ev.Actor)
		return
	}
	day := t.Day(ev.Time)
	svc.Actions[ev.Type]++

	svc.Add(ev.Actor).AddOutbound(day, ev.Type, 1)

	if ev.Target != 0 && ev.Target != ev.Actor {
		tgt := svc.Add(ev.Target)
		if !tgt.targeted && svc.targets < targetCap {
			tgt.targeted = true
			svc.targets++
		}
		tgt.AddInbound(day, ev.Type, 1)

		if ev.Type == platform.ActionLike {
			tgt.AddPostLikes(ev.Post, 1)
			hour := ev.Time.Unix() / 3600
			if tgt.curHour != hour || tgt.curHourPost != ev.Post {
				tgt.curHour, tgt.curHourPost, tgt.curHourCount = hour, ev.Post, 0
			}
			tgt.curHourCount++
			if tgt.curHourCount > tgt.PeakHourlyLike {
				tgt.PeakHourlyLike = tgt.curHourCount
			}
		}
	}
}

// Service returns the aggregate for a label (nil when unseen).
func (t *Tracker) Service(label string) *ServiceActivity {
	for _, svc := range t.services {
		if svc != nil && svc.Label == label {
			return svc
		}
	}
	return nil
}

// Labels returns the labels with observed activity, sorted.
func (t *Tracker) Labels() []string {
	out := make([]string, 0, len(t.services))
	for _, svc := range t.services {
		if svc != nil {
			out = append(out, svc.Label)
		}
	}
	sort.Strings(out)
	return out
}
