package platform

import "time"

// hourlyLimiter enforces a per-account actions-per-hour cap using fixed
// hourly buckets on the simulated clock. Fixed windows are what large
// platforms actually deploy for coarse API quotas, and they are what the
// paper's services probe against.
//
// State is two dense arrays indexed by account row:
// the bucket's hour stamp and the count consumed in it. The hour stamp
// doubles as the epoch mark (the PR 5 collusion-dedup trick): a stale
// stamp means the bucket is logically empty and is reset in place on
// first touch of a new hour, so the limiter allocates nothing per
// active account per hour — unlike the map[AccountID]*window it
// replaced, which minted a two-word heap object per account. Stamp 0
// means "never touched": the simulated clock starts decades after the
// Unix epoch, so no real bucket can stamp 0.
type hourlyLimiter struct {
	hours  []int64 // hours since Unix epoch identifying the bucket; 0 = never touched
	counts []int32
}

// ensure grows the arrays to cover row r.
func (l *hourlyLimiter) ensure(r uint32) {
	for int(r) >= len(l.hours) {
		l.hours = append(l.hours, 0)
		l.counts = append(l.counts, 0)
	}
}

// allow records one action attempt by row r at time t and reports
// whether it is within the account's hourly budget. A non-positive
// limit disables the cap.
func (l *hourlyLimiter) allow(r uint32, t time.Time, limit int) bool {
	if limit <= 0 {
		return true
	}
	l.ensure(r)
	hour := t.Unix() / 3600
	if l.hours[r] != hour {
		l.hours[r] = hour
		l.counts[r] = 0
	}
	if int(l.counts[r]) >= limit {
		return false
	}
	l.counts[r]++
	return true
}

// peek returns the count row r already consumed in t's bucket without
// recording anything — used to attribute a denial to a storm-tightened
// limit versus the ordinary cap.
func (l *hourlyLimiter) peek(r uint32, t time.Time) int {
	if int(r) >= len(l.hours) || l.hours[r] != t.Unix()/3600 {
		return 0
	}
	return int(l.counts[r])
}

// reset drops every bucket (restore path).
func (l *hourlyLimiter) reset() {
	l.hours = l.hours[:0]
	l.counts = l.counts[:0]
}

// set overwrites row r's bucket (restore path).
func (l *hourlyLimiter) set(r uint32, hour int64, count int) {
	l.ensure(r)
	l.hours[r] = hour
	l.counts[r] = int32(count)
}
