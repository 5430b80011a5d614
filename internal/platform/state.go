package platform

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/snaprow"
)

// This file is the platform's half of the snapshot/restore contract (see
// internal/persistence and docs/PERSISTENCE.md). The platform is the
// section's row source: each row is read straight out of the tables
// into one reused row value. Restore decodes the section into a Staged
// platform — fresh tables sized from checked counts — and Commit swaps
// those tables in once every section has decoded and passed its checks.
// Both run only at day boundaries on the world's goroutine, never
// during a plan phase. Accounts and limiter windows are listed in
// ascending ID order, which is row order.

// State is the platform section as plain structs: the fixture the codec
// tests and fuzz targets build, written and read through the same
// section code as a live platform.
type State struct {
	NextPost uint64
	LogSeq   uint64
	Accounts []AccountState
	Limiters []LimiterState
	Tags     []TagState
	// Enforcements are the delayed-removal actions scheduled by
	// VerdictDelayRemove that have not fired yet, in scheduling order.
	Enforcements []EnforcementState
}

// AccountState is one account record, flattened for serialization.
type AccountState struct {
	ID             AccountID
	Username       string
	Password       string
	Profile        Profile
	HomeCountry    string
	Created        time.Time
	Deleted        bool
	SessionEpoch   uint64
	LoginCountries []CountryCount // sorted by country
	Posts          []PostID       // creation order
	LikeCounts     []PostCount    // sorted by post ID
}

// CountryCount is one login-geolocation tally.
type CountryCount struct {
	Country string
	N       int
}

// PostCount is one per-post like tally (stateless-graph mode).
type PostCount struct {
	Post PostID
	N    int
}

// LimiterState is one hourly rate-limit window.
type LimiterState struct {
	ID    AccountID
	Hour  int64
	Count int
}

// TagState is one hashtag ring, serialized in logical order (oldest
// first) so the representation is independent of the ring's rotation.
type TagState struct {
	Tag   string
	Posts []PostID
}

// EnforcementState is one pending delayed-removal.
type EnforcementState struct {
	From AccountID
	To   AccountID
	Due  time.Time
}

// SessionState is a serializable session handle. Other components embed
// it to persist the sessions they hold.
type SessionState struct {
	Present     bool
	ID          AccountID
	Epoch       uint64
	IP          netip.Addr
	Fingerprint string
	API         APIKind
}

// CaptureSession flattens a session (nil allowed) into a SessionState.
func CaptureSession(s *Session) SessionState {
	if s == nil {
		return SessionState{}
	}
	return SessionState{
		Present:     true,
		ID:          s.id,
		Epoch:       s.epoch,
		IP:          s.client.IP,
		Fingerprint: s.client.Fingerprint,
		API:         s.client.API,
	}
}

// RestoreSession rebuilds a session handle from a snapshot without going
// through Login: no event is emitted, no geolocation tally moves, and no
// address is allocated. A not-present state restores to nil. The epoch is
// restored verbatim, so a session that was already revoked at snapshot
// time is still revoked after restore.
func (p *Platform) RestoreSession(st SessionState) *Session {
	if !st.Present {
		return nil
	}
	return &Session{
		p: p, id: st.ID, epoch: st.Epoch,
		client: ClientInfo{IP: st.IP, Fingerprint: st.Fingerprint, API: st.API},
	}
}

// SnapshotCounters, AccountRows, LimiterRows, TagRows and
// EnforcementRows make the fixture a section source; the Load methods
// and Finish make it a section sink.
func (st *State) SnapshotCounters() (nextPost, logSeq uint64) { return st.NextPost, st.LogSeq }
func (st *State) AccountRows() snaprow.Rows[AccountState]     { return snaprow.Of(st.Accounts) }
func (st *State) LimiterRows() snaprow.Rows[LimiterState]     { return snaprow.Of(st.Limiters) }
func (st *State) TagRows() snaprow.Rows[TagState]             { return snaprow.Of(st.Tags) }
func (st *State) EnforcementRows() snaprow.Rows[EnforcementState] {
	return snaprow.Of(st.Enforcements)
}
func (st *State) LoadAccounts(hint int) func(*AccountState) { return snaprow.Into(&st.Accounts)(hint) }
func (st *State) LoadLimiters(hint int) func(*LimiterState) { return snaprow.Into(&st.Limiters)(hint) }
func (st *State) LoadTags(hint int) func(*TagState)         { return snaprow.Into(&st.Tags)(hint) }
func (st *State) LoadEnforcements(hint int) func(*EnforcementState) {
	return snaprow.Into(&st.Enforcements)(hint)
}
func (st *State) Finish(nextPost, logSeq uint64) error {
	st.NextPost, st.LogSeq = nextPost, logSeq
	return nil
}

// SnapshotCounters returns the stateless post counter and the event
// sequence number.
func (p *Platform) SnapshotCounters() (nextPost, logSeq uint64) { return p.nextPost, p.log.Seq() }

// AccountRows yields every account row, deleted ones included, in ID
// order. Per-account tallies are kept sorted, so a row's lists alias
// the table's own slices.
func (p *Platform) AccountRows() snaprow.Rows[AccountState] {
	t := &p.accts
	return snaprow.Rows[AccountState]{N: len(t.usernames), Each: func(yield func(*AccountState)) {
		var a AccountState
		for r := range t.usernames {
			a = AccountState{
				ID:             AccountID(r + 1),
				Username:       t.usernames[r],
				Password:       t.passwords[r],
				Profile:        t.profiles[r],
				HomeCountry:    t.countries[t.homes[r]],
				Created:        clock.FromUnixNano(t.created[r]),
				Deleted:        t.deleted[r],
				SessionEpoch:   t.sessionEpochs[r],
				LoginCountries: t.logins[r],
				Posts:          t.posts[r],
				LikeCounts:     t.likeCounts[r],
			}
			yield(&a)
		}
	}}
}

// LimiterRows yields every rate-limit window ever touched, in ID order.
func (p *Platform) LimiterRows() snaprow.Rows[LimiterState] {
	l := &p.limiter
	n := 0
	for _, hour := range l.hours {
		if hour != 0 {
			n++
		}
	}
	return snaprow.Rows[LimiterState]{N: n, Each: func(yield func(*LimiterState)) {
		var ls LimiterState
		for r, hour := range l.hours {
			if hour == 0 {
				continue // never touched
			}
			ls = LimiterState{ID: AccountID(r + 1), Hour: hour, Count: int(l.counts[r])}
			yield(&ls)
		}
	}}
}

// TagRows yields the hashtag rings sorted by tag, each oldest post
// first: for a full ring that is posts[next:] then posts[:next], for a
// partial one posts[:next].
func (p *Platform) TagRows() snaprow.Rows[TagState] {
	tags := make([]string, 0, len(p.tags.byTag))
	for tag := range p.tags.byTag {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	return snaprow.Rows[TagState]{N: len(tags), Each: func(yield func(*TagState)) {
		var ts TagState
		var wrapped []PostID
		for _, tag := range tags {
			r := p.tags.byTag[tag]
			ts = TagState{Tag: tag, Posts: r.posts[:r.next]}
			if r.full {
				wrapped = append(append(wrapped[:0], r.posts[r.next:]...), r.posts[:r.next]...)
				ts.Posts = wrapped
			}
			yield(&ts)
		}
	}}
}

// EnforcementRows yields the pending delayed removals in scheduling
// order.
func (p *Platform) EnforcementRows() snaprow.Rows[EnforcementState] {
	n := 0
	for _, e := range p.enforce {
		if !e.done {
			n++
		}
	}
	return snaprow.Rows[EnforcementState]{N: n, Each: func(yield func(*EnforcementState)) {
		var es EnforcementState
		for _, e := range p.enforce {
			if e.done {
				continue
			}
			es = EnforcementState{From: e.from, To: e.to, Due: e.due}
			yield(&es)
		}
	}}
}

// Staged is a decoded platform section: fresh tables, not yet installed.
// As rows load, and again in Finish, it checks the invariants the
// ID-addressed tables rely on. Accounts must be exactly IDs 1..N in
// order — the platform registers every minted account ID, deleted rows
// included. Every post ID must be listed once, by one account, and lie
// in 1..P for the P posts listed, because post IDs too are minted
// densely and only for platform posts. Limiter windows and the post
// counter must stay within those bounds. Together these bound every
// table Commit sizes.
type Staged struct {
	nextPost, logSeq uint64
	accts            accountTable
	limiter          hourlyLimiter
	tags             []TagState
	enforce          []EnforcementState
	posts            int // post IDs the account rows list
	loggedIn         int // account rows with a login tally
	err              error
}

// NewStaged returns an empty staged platform section to decode into.
func NewStaged() *Staged { return &Staged{} }

// fail records the first broken invariant; later rows are ignored.
func (s *Staged) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// LoadAccounts appends account rows, keeping each row's decoded lists.
func (s *Staged) LoadAccounts(hint int) func(*AccountState) {
	s.accts.reserve(hint)
	return func(a *AccountState) {
		t := &s.accts
		if want := AccountID(len(t.usernames) + 1); a.ID != want {
			s.fail("platform: account %d listed at position %d: IDs must run 1, 2, 3, … without gaps or repeats", a.ID, want-1)
		}
		if !snaprow.Sorted(a.LoginCountries, func(cc *CountryCount) string { return cc.Country }) ||
			!snaprow.Sorted(a.LikeCounts, func(pc *PostCount) PostID { return pc.Post }) {
			s.fail("platform: account %d's tallies are not sorted", a.ID)
		}
		if s.err != nil {
			return
		}
		r := t.add(a.ID, a.Username, a.Password, a.Profile, a.HomeCountry, a.Created)
		t.deleted[r] = a.Deleted
		t.sessionEpochs[r] = a.SessionEpoch
		t.logins[r] = a.LoginCountries
		t.posts[r] = a.Posts
		t.likeCounts[r] = a.LikeCounts
		s.posts += len(a.Posts)
		if len(a.LoginCountries) > 0 {
			s.loggedIn++
		}
	}
}

// LoadLimiters sets rate-limit windows; the account rows come first on
// the wire, so each window's ID is checked against them.
func (s *Staged) LoadLimiters(int) func(*LimiterState) {
	n := len(s.accts.usernames)
	s.limiter.hours = make([]int64, n)
	s.limiter.counts = make([]int32, n)
	var prev AccountID
	return func(ls *LimiterState) {
		if ls.ID < 1 || uint64(ls.ID) > uint64(n) {
			s.fail("platform: rate-limit window for unknown account %d", ls.ID)
			return
		}
		if ls.ID <= prev || ls.Hour == 0 {
			s.fail("platform: rate-limit window %d out of order or never touched", ls.ID)
			return
		}
		prev = ls.ID
		s.limiter.hours[ls.ID-1] = ls.Hour
		s.limiter.counts[ls.ID-1] = int32(ls.Count)
	}
}

func (s *Staged) LoadTags(hint int) func(*TagState) { return snaprow.Into(&s.tags)(hint) }
func (s *Staged) LoadEnforcements(hint int) func(*EnforcementState) {
	return snaprow.Into(&s.enforce)(hint)
}

// Finish runs the checks that need the whole section.
func (s *Staged) Finish(nextPost, logSeq uint64) error {
	if s.err != nil {
		return s.err
	}
	if nextPost > uint64(s.posts) {
		return fmt.Errorf("platform: post counter %d exceeds the %d posts listed", nextPost, s.posts)
	}
	if !snaprow.Sorted(s.tags, func(ts *TagState) string { return ts.Tag }) {
		return fmt.Errorf("platform: hashtag rings are not sorted by tag")
	}
	for _, ts := range s.tags {
		if len(ts.Posts) > defaultTagKeep {
			return fmt.Errorf("platform: hashtag %q lists %d posts, more than a ring keeps", ts.Tag, len(ts.Posts))
		}
	}
	seen := make([]bool, s.posts)
	for r, posts := range s.accts.posts {
		for _, pid := range posts {
			if pid < 1 || uint64(pid) > uint64(s.posts) || seen[pid-1] {
				return fmt.Errorf("platform: account %d lists post %d: post IDs must be unique and within [1, %d]", r+1, pid, s.posts)
			}
			seen[pid-1] = true
		}
	}
	s.nextPost, s.logSeq = nextPost, logSeq
	return nil
}

// NumAccounts and NumPosts report how many account rows and post IDs
// the staged section lists — the bounds the graph's counters are
// checked against.
func (s *Staged) NumAccounts() int { return len(s.accts.usernames) }
func (s *Staged) NumPosts() int    { return s.posts }

// NumLoggedIn reports how many account rows have ever logged in: a
// bound on the sessions any other section can hold.
func (s *Staged) NumLoggedIn() int { return s.loggedIn }

// Pending returns the staged section's pending delayed removals, for
// RestoreEnforcements.
func (s *Staged) Pending() []EnforcementState { return s.enforce }

// Commit installs a staged section that has passed Finish, replacing
// the platform's tables wholesale, and rebuilds the username and
// post-author indexes from them. The pending enforcements are
// re-registered separately via RestoreEnforcements, once the scheduler
// sits at the snapshot instant.
func (p *Platform) Commit(s *Staged) {
	p.phase.CheckWrite("platform.Commit")
	p.nextPost = s.nextPost
	p.log.RestoreSeq(s.logSeq)
	p.accts = s.accts
	p.limiter = s.limiter
	t := &p.accts
	// The rebuilt world's index was sized for every account it
	// registers, so refilling it rehashes nothing.
	clear(p.byUsername)
	p.authors = make([]AccountID, s.posts)
	for r, name := range t.usernames {
		if t.deleted[r] {
			continue
		}
		id := AccountID(r + 1)
		p.byUsername[name] = id
		for _, pid := range t.posts[r] {
			p.authors[pid-1] = id
		}
	}
	clear(p.tags.byTag)
	for _, ts := range s.tags {
		r := &tagRing{posts: make([]PostID, p.tags.keepup)}
		k := copy(r.posts, ts.Posts)
		r.next = k % len(r.posts)
		r.full = k == len(r.posts)
		p.tags.byTag[ts.Tag] = r
	}
}

// ReserveAccounts mints n account IDs without registering anyone: the
// rows stay empty — no username, profile or photos — until a restore
// commits a snapshot's tables over them. Restore reserves the organic
// population this way instead of rebuilding it, so every ID minted
// after the population comes out as it did in the original run. It
// returns the first reserved ID.
func (p *Platform) ReserveAccounts(n int) AccountID {
	p.phase.CheckWrite("platform.ReserveAccounts")
	first := p.graph.ReserveAccounts(n)
	p.accts.reserve(n)
	for id := first; id < first+AccountID(n); id++ {
		p.accts.add(id, "", "", Profile{}, "", time.Time{})
	}
	if m := p.tel; m != nil {
		m.accounts.Add(int64(n))
	}
	return first
}

// RestoreEnforcements re-registers the pending delayed-removals from a
// snapshot, in their original scheduling order. Call after the scheduler
// has been fast-forwarded to the snapshot instant so the At targets are
// in the future.
func (p *Platform) RestoreEnforcements(sts []EnforcementState) {
	p.phase.CheckWrite("platform.RestoreEnforcements")
	p.enforce = p.enforce[:0]
	for _, es := range sts {
		e := &pendingEnforcement{from: es.From, to: es.To, due: es.Due}
		p.enforce = append(p.enforce, e)
		p.sched.At(e.due, func() { p.fireEnforcement(e) })
	}
}
