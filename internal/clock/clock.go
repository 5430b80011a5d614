// Package clock provides deterministic simulated time for the study.
//
// All components observe time through a shared *Clock and schedule future
// work on its Scheduler. Nothing in the simulator reads wall-clock time, so
// a 90-day measurement period executes in milliseconds and every run with
// the same seed replays the same timeline.
package clock

import (
	"container/heap"
	"fmt"
	"time"
)

// Day is the simulation's coarse unit; most paper analyses are per-day.
const Day = 24 * time.Hour

// Epoch is the start of every simulation: fall 2017, matching the paper's
// measurement window.
var Epoch = time.Date(2017, time.September, 1, 0, 0, 0, 0, time.UTC)

// Clock is a simulated clock. It only moves when its Scheduler runs events
// or when Advance is called explicitly. Clock is not safe for concurrent
// mutation; the simulator runs a single logical timeline.
type Clock struct {
	now time.Time
}

// New returns a clock set to Epoch.
func New() *Clock { return &Clock{now: Epoch} }

// NewAt returns a clock set to the given instant.
func NewAt(t time.Time) *Clock { return &Clock{now: t} }

// Now returns the current simulated instant.
func (c *Clock) Now() time.Time { return c.now }

// Day returns the number of whole simulated days elapsed since Epoch.
// Events on day 0 happen within the first 24 hours of the simulation.
func (c *Clock) Day() int { return int(c.now.Sub(Epoch) / Day) }

// Advance moves the clock forward by d. It panics on negative d: simulated
// time never rewinds.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: Advance with negative duration")
	}
	c.now = c.now.Add(d)
}

// event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-break so same-instant events run in schedule order
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler executes callbacks in simulated-time order, advancing its Clock
// as it goes. It is single-threaded by design: event handlers may schedule
// further events but must not spawn goroutines that touch the scheduler.
type Scheduler struct {
	clock *Clock
	queue eventHeap
	seq   uint64
}

// NewScheduler returns a scheduler driving the given clock.
func NewScheduler(c *Clock) *Scheduler { return &Scheduler{clock: c} }

// Clock returns the clock the scheduler drives.
func (s *Scheduler) Clock() *Clock { return s.clock }

// At schedules fn to run at instant t. Scheduling in the past (before the
// clock's current time) is an error the simulator cannot recover from, so
// it panics with a description of the offense.
func (s *Scheduler) At(t time.Time, fn func()) {
	if t.Before(s.clock.now) {
		panic(fmt.Sprintf("clock: scheduling at %v which is before now %v", t, s.clock.now))
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current simulated instant.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.clock.now.Add(d), fn)
}

// EveryDay schedules fn once per simulated day for days consecutive days,
// starting at the next occurrence of offset past midnight UTC. fn receives
// the day index counted from the first firing.
func (s *Scheduler) EveryDay(offset time.Duration, days int, fn func(day int)) {
	start := s.clock.now.Truncate(Day).Add(offset)
	if !start.After(s.clock.now) {
		start = start.Add(Day)
	}
	for i := 0; i < days; i++ {
		day := i
		s.At(start.Add(time.Duration(i)*Day), func() { fn(day) })
	}
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// FastForward discards every queued event scheduled at or before t and
// sets the clock to t without running anything. It is the restore path's
// counterpart to RunUntil: when a world is rebuilt from a snapshot taken
// at instant t, construction re-registers the full schedule from Epoch,
// and FastForward drops the portion that had already fired before the
// snapshot. It panics if t is before the current clock — fast-forward
// never rewinds.
func (s *Scheduler) FastForward(t time.Time) int {
	if t.Before(s.clock.now) {
		panic(fmt.Sprintf("clock: FastForward to %v which is before now %v", t, s.clock.now))
	}
	dropped := 0
	for len(s.queue) > 0 && !s.queue[0].at.After(t) {
		heap.Pop(&s.queue)
		dropped++
	}
	s.clock.now = t
	return dropped
}

// RunUntil executes events in order until the queue is exhausted or the next
// event is after deadline, then sets the clock to deadline. It returns the
// number of events executed.
func (s *Scheduler) RunUntil(deadline time.Time) int {
	ran := 0
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at.After(deadline) {
			break
		}
		heap.Pop(&s.queue)
		s.clock.now = next.at
		next.fn()
		ran++
	}
	if deadline.After(s.clock.now) {
		s.clock.now = deadline
	}
	return ran
}

// RunFor executes events for the next d of simulated time.
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.clock.now.Add(d))
}

// Drain executes every queued event regardless of timestamp and returns the
// number executed. Useful in tests.
func (s *Scheduler) Drain() int {
	ran := 0
	for len(s.queue) > 0 {
		next := heap.Pop(&s.queue).(*event)
		s.clock.now = next.at
		next.fn()
		ran++
	}
	return ran
}
