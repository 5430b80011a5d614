package platform

import (
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// This file is the platform's half of the snapshot/restore contract (see
// internal/persistence and docs/PERSISTENCE.md). SnapshotState enumerates
// every piece of mutable platform state the request pipeline can touch;
// RestoreState overwrites a freshly constructed platform with it. Both
// run only at day boundaries on the world's goroutine, never during a
// plan phase. Accounts and limiter windows are listed in ascending ID
// order, which is row order.

// State is the complete mutable state of a Platform.
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

// SnapshotState captures the platform's complete mutable state.
func (p *Platform) SnapshotState() *State {
	st := &State{NextPost: p.nextPost, LogSeq: p.log.Seq()}
	t := &p.accts
	// Per-account tallies are maintained sorted, so rows copy straight
	// out in ID order.
	for r := range t.usernames {
		as := AccountState{
			ID:           AccountID(r + 1),
			Username:     t.usernames[r],
			Password:     t.passwords[r],
			Profile:      t.profiles[r],
			HomeCountry:  t.homeCountries[r],
			Created:      t.created[r],
			Deleted:      t.deleted[r],
			SessionEpoch: t.sessionEpochs[r],
			Posts:        append([]PostID(nil), t.posts[r]...),
		}
		if ls := t.logins[r]; len(ls) > 0 {
			as.LoginCountries = append([]CountryCount(nil), ls...)
		}
		if lc := t.likeCounts[r]; len(lc) > 0 {
			as.LikeCounts = append([]PostCount(nil), lc...)
		}
		st.Accounts = append(st.Accounts, as)
	}
	for r, hour := range p.limiter.hours {
		if hour == 0 {
			continue // never touched
		}
		st.Limiters = append(st.Limiters, LimiterState{
			ID: AccountID(r + 1), Hour: hour, Count: int(p.limiter.counts[r]),
		})
	}

	for tag, r := range p.tags.byTag {
		ts := TagState{Tag: tag}
		n := r.next
		if r.full {
			n = len(r.posts)
		}
		// Oldest first: for a full ring that is posts[next:], posts[:next];
		// for a partial one, posts[:next].
		if r.full {
			ts.Posts = append(ts.Posts, r.posts[r.next:]...)
			ts.Posts = append(ts.Posts, r.posts[:r.next]...)
		} else {
			ts.Posts = append(ts.Posts, r.posts[:n]...)
		}
		st.Tags = append(st.Tags, ts)
	}
	sort.Slice(st.Tags, func(i, j int) bool { return st.Tags[i].Tag < st.Tags[j].Tag })

	for _, e := range p.enforce {
		if e.done {
			continue
		}
		st.Enforcements = append(st.Enforcements, EnforcementState{From: e.from, To: e.to, Due: e.due})
	}
	return st
}

// validate checks the structural invariants RestoreState relies on.
// Accounts must be exactly IDs 1..N in order — the platform registers
// every minted account ID, deleted rows included. Every post ID must be
// listed once, by one account, and lie in 1..P for the P posts listed,
// because post IDs too are minted densely and only for platform posts.
// Limiter windows and the post counter must stay within those bounds.
// Together these bound every table RestoreState sizes by the snapshot's
// own length.
func (st *State) validate() error {
	posts := 0
	for i := range st.Accounts {
		if want := AccountID(i + 1); st.Accounts[i].ID != want {
			return fmt.Errorf("platform: account %d listed at position %d: IDs must run 1, 2, 3, … without gaps or repeats", st.Accounts[i].ID, i)
		}
		posts += len(st.Accounts[i].Posts)
	}
	if st.NextPost > uint64(posts) {
		return fmt.Errorf("platform: post counter %d exceeds the %d posts listed", st.NextPost, posts)
	}
	seen := make([]bool, posts)
	for i := range st.Accounts {
		for _, pid := range st.Accounts[i].Posts {
			if pid < 1 || uint64(pid) > uint64(posts) || seen[pid-1] {
				return fmt.Errorf("platform: account %d lists post %d: post IDs must be unique and within [1, %d]", st.Accounts[i].ID, pid, posts)
			}
			seen[pid-1] = true
		}
	}
	for _, ls := range st.Limiters {
		if ls.ID < 1 || uint64(ls.ID) > uint64(len(st.Accounts)) {
			return fmt.Errorf("platform: rate-limit window for unknown account %d", ls.ID)
		}
	}
	return nil
}

// RestoreState overwrites the platform's mutable state with a snapshot.
// The caller is responsible for re-registering the pending enforcements'
// scheduler events via RestoreEnforcements (after the scheduler has been
// fast-forwarded to the snapshot instant). A snapshot that breaks the
// invariants validate checks is rejected before anything is
// overwritten.
func (p *Platform) RestoreState(st *State) error {
	p.phase.CheckWrite("platform.RestoreState")
	if err := st.validate(); err != nil {
		return err
	}
	p.nextPost = st.NextPost
	p.log.RestoreSeq(st.LogSeq)
	clear(p.byUsername)
	p.accts.reset()
	p.limiter.reset()
	p.authors = p.authors[:0]

	t := &p.accts
	for i := range st.Accounts {
		as := &st.Accounts[i]
		r := t.add(as.ID, as.Username, as.Password, as.Profile, as.HomeCountry, as.Created)
		t.deleted[r] = as.Deleted
		t.sessionEpochs[r] = as.SessionEpoch
		if len(as.LoginCountries) > 0 {
			t.logins[r] = append([]CountryCount(nil), as.LoginCountries...)
		}
		if len(as.Posts) > 0 {
			t.posts[r] = append([]PostID(nil), as.Posts...)
		}
		if len(as.LikeCounts) > 0 {
			t.likeCounts[r] = append([]PostCount(nil), as.LikeCounts...)
		}
		if !as.Deleted {
			p.byUsername[as.Username] = as.ID
			for _, pid := range as.Posts {
				p.setAuthor(pid, as.ID)
			}
		}
	}

	for _, ls := range st.Limiters {
		p.limiter.set(uint32(ls.ID-1), ls.Hour, ls.Count)
	}

	clear(p.tags.byTag)
	for _, ts := range st.Tags {
		r := &tagRing{posts: make([]PostID, p.tags.keepup)}
		k := copy(r.posts, ts.Posts)
		r.next = k % len(r.posts)
		r.full = k == len(r.posts)
		p.tags.byTag[ts.Tag] = r
	}
	return nil
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
