package socialgraph

import (
	"fmt"
	"math"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/snaprow"
)

// Snapshot/restore support (see internal/persistence). The serialized
// form lists live accounts and posts in ascending ID order and stores
// only one side of each symmetric relation: follower sets, per-account
// like sets, and per-account comment counts are derived on restore from
// followee sets, post like sets, and post comment lists respectively.
// Rows are already in ID order and the in-memory adjacency is kept
// sorted, so the graph writes its rows straight from its tables, through
// one reused widening buffer per list. Restore decodes into a Staged
// graph and Commit installs it. Both run on the world's goroutine at day
// boundaries, never during a plan phase.

// State is the graph section as plain structs: the fixture the codec
// tests and fuzz targets build, written and read through the same
// section code as a live graph.
type State struct {
	NextAcct AccountID
	NextPost PostID
	Accounts []AccountState
	Posts    []PostState
}

// AccountState is one account, flattened.
type AccountState struct {
	ID        AccountID
	Created   time.Time
	Followees []AccountID // sorted
	Posts     []PostID    // creation order
}

// PostState is one post, flattened.
type PostState struct {
	ID       PostID
	Author   AccountID
	Created  time.Time
	Likes    []AccountID // sorted
	Comments []Comment   // posting order
}

// SnapshotCounters, AccountRows and PostRows make the fixture a section
// source; the Load methods and Finish make it a section sink.
func (st *State) SnapshotCounters() (AccountID, PostID)     { return st.NextAcct, st.NextPost }
func (st *State) AccountRows() snaprow.Rows[AccountState]   { return snaprow.Of(st.Accounts) }
func (st *State) PostRows() snaprow.Rows[PostState]         { return snaprow.Of(st.Posts) }
func (st *State) LoadAccounts(hint int) func(*AccountState) { return snaprow.Into(&st.Accounts)(hint) }
func (st *State) LoadPosts(hint int) func(*PostState)       { return snaprow.Into(&st.Posts)(hint) }
func (st *State) Finish() error                             { return nil }
func (st *State) LoadCounters(a AccountID, p PostID) error {
	st.NextAcct, st.NextPost = a, p
	return nil
}

// SnapshotCounters returns the last account and post IDs minted.
func (g *Graph) SnapshotCounters() (AccountID, PostID) { return g.nextAcct, g.nextPost }

// AccountRows yields the live accounts in ID order.
func (g *Graph) AccountRows() snaprow.Rows[AccountState] {
	a := &g.accts
	return snaprow.Rows[AccountState]{N: a.nLive, Each: func(yield func(*AccountState)) {
		var as AccountState
		var fees []AccountID
		for r, live := range a.live {
			if !live {
				continue
			}
			fees = appendWide(fees[:0], a.followees[r])
			as = AccountState{ID: AccountID(r + 1), Created: clock.FromUnixNano(a.created[r]), Followees: fees, Posts: a.posts[r]}
			yield(&as)
		}
	}}
}

// PostRows yields the live posts in ID order.
func (g *Graph) PostRows() snaprow.Rows[PostState] {
	p := &g.posts
	n := 0
	for _, live := range p.live {
		if live {
			n++
		}
	}
	return snaprow.Rows[PostState]{N: n, Each: func(yield func(*PostState)) {
		var ps PostState
		var likes []AccountID
		for r, live := range p.live {
			if !live {
				continue
			}
			likes = appendWide(likes[:0], p.likes[r])
			ps = PostState{
				ID: PostID(r + 1), Author: AccountID(p.authors[r]), Created: p.created[r],
				Likes: likes, Comments: p.comments[r],
			}
			yield(&ps)
		}
	}}
}

// appendWide appends s, widened to account IDs, to dst.
func appendWide(dst []AccountID, s []uint32) []AccountID {
	for _, v := range s {
		dst = append(dst, AccountID(v))
	}
	return dst
}

// ascending reports whether ids is a sorted set.
func ascending(ids []AccountID) bool {
	return snaprow.Sorted(ids, func(id *AccountID) AccountID { return *id })
}

// adjChunk is how many IDs one shared adjacency array of a Staged
// graph holds, unless one list needs more.
const adjChunk = 16 << 10

// narrow copies a decoded ID list into adjacency form, cut from the
// staged graph's current shared array and capped at its length, so an
// append to the set later reallocates that row alone. The IDs have been
// checked against the uint32 counters.
func (s *Staged) narrow(ids []AccountID) []uint32 {
	if len(ids) == 0 {
		return nil
	}
	if len(s.adj) < len(ids) {
		s.adj = make([]uint32, max(len(ids), adjChunk))
	}
	out := s.adj[:len(ids):len(ids)]
	s.adj = s.adj[len(ids):]
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out
}

// invert fills sets with the pairs visit yields, each (r, v) adding v
// to row r's set. The sets are cut from one array, each capped at its
// length. visit runs twice, once to count and once to fill, and must
// yield each row's values in ascending order both times, so that every
// set comes out sorted.
func invert(sets [][]uint32, visit func(yield func(r, v uint32))) {
	counts := make([]int32, len(sets))
	total := 0
	visit(func(r, _ uint32) {
		counts[r]++
		total++
	})
	all := make([]uint32, total)
	for r, n := range counts {
		if n > 0 {
			sets[r] = all[:0:n]
			all = all[n:]
		}
	}
	visit(func(r, v uint32) { sets[r] = append(sets[r], v) })
}

// Staged is a decoded graph section: fresh tables, not yet installed.
// It checks the invariants the tables rely on as rows load: counters
// within the uint32 ID space, and account and post IDs at least 1,
// strictly ascending and not past their counter — which also bounds
// every ID another record refers to. The tables are sized by the
// counters, so a caller restoring untrusted input must bound those
// before LoadCounters (core.RestoreWorld checks them against the
// platform's account and post lists).
type Staged struct {
	nextAcct AccountID
	nextPost PostID
	accts    acctTable
	posts    postTable
	adj      []uint32 // the unused tail of the current adjacency array
	prevAcct AccountID
	prevPost PostID
	err      error
}

// NewStaged returns an empty staged graph section to decode into.
func NewStaged() *Staged { return &Staged{} }

func (s *Staged) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// acct and post check a referenced ID against its counter.
func (s *Staged) acct(what string, id AccountID) bool {
	if id < 1 || id > s.nextAcct {
		s.fail("socialgraph: %s account ID %d outside [1, %d]", what, id, s.nextAcct)
		return false
	}
	return true
}

func (s *Staged) post(what string, pid PostID) bool {
	if pid < 1 || pid > s.nextPost {
		s.fail("socialgraph: %s post ID %d outside [1, %d]", what, pid, s.nextPost)
		return false
	}
	return true
}

// LoadCounters checks the counters and sizes the tables by them.
func (s *Staged) LoadCounters(nextAcct AccountID, nextPost PostID) error {
	if uint64(nextAcct) > math.MaxUint32 || uint64(nextPost) > math.MaxUint32 {
		return fmt.Errorf("socialgraph: ID counters %d/%d exceed the uint32 ID space", nextAcct, nextPost)
	}
	s.nextAcct, s.nextPost = nextAcct, nextPost
	s.accts.grow(int(nextAcct))
	s.posts.grow(int(nextPost))
	return nil
}

// LoadAccounts revives each listed account with its followees and posts.
func (s *Staged) LoadAccounts(int) func(*AccountState) {
	return func(as *AccountState) {
		if s.err != nil || !s.acct("listed", as.ID) {
			return
		}
		if as.ID <= s.prevAcct {
			s.fail("socialgraph: account ID %d follows %d: IDs must be strictly ascending", as.ID, s.prevAcct)
			return
		}
		s.prevAcct = as.ID
		if !ascending(as.Followees) {
			s.fail("socialgraph: account %d's followees are not a sorted set", as.ID)
			return
		}
		for _, f := range as.Followees {
			if !s.acct("followed", f) {
				return
			}
		}
		for _, pid := range as.Posts {
			if !s.post("authored", pid) {
				return
			}
		}
		r := uint32(as.ID - 1)
		s.accts.revive(r, as.Created)
		s.accts.followees[r] = s.narrow(as.Followees)
		s.accts.posts[r] = as.Posts
	}
}

// LoadPosts revives each listed post and derives the per-account
// comment counts from it; Finish derives the like sets.
func (s *Staged) LoadPosts(int) func(*PostState) {
	a, p := &s.accts, &s.posts
	return func(ps *PostState) {
		if s.err != nil || !s.post("listed", ps.ID) {
			return
		}
		if ps.ID <= s.prevPost {
			s.fail("socialgraph: post ID %d follows %d: IDs must be strictly ascending", ps.ID, s.prevPost)
			return
		}
		s.prevPost = ps.ID
		if !s.acct("authoring", ps.Author) {
			return
		}
		if !ascending(ps.Likes) {
			s.fail("socialgraph: post %d's likers are not a sorted set", ps.ID)
			return
		}
		for _, who := range ps.Likes {
			if !s.acct("liking", who) {
				return
			}
		}
		for _, c := range ps.Comments {
			if !s.acct("commenting", c.Author) {
				return
			}
		}
		r := uint32(ps.ID - 1)
		p.revive(r, ps.Author, ps.Created)
		p.likes[r] = s.narrow(ps.Likes)
		p.comments[r] = ps.Comments
		pid := uint32(ps.ID)
		for _, c := range ps.Comments {
			if r, ok := a.row(c.Author); ok {
				a.bumpCommented(r, pid, 1)
			}
		}
	}
}

// Finish derives the follower sets from the followee sets and the
// per-account like sets from the posts' like sets, now that every
// account and post exists. Accounts and posts are visited in ascending
// ID order, so each set comes out sorted.
func (s *Staged) Finish() error {
	if s.err != nil {
		return s.err
	}
	a, p := &s.accts, &s.posts
	invert(a.followers, func(yield func(r, v uint32)) {
		for r, live := range a.live {
			if !live {
				continue
			}
			for _, f := range a.followees[r] {
				if fr, ok := a.row(AccountID(f)); ok {
					yield(fr, uint32(r+1))
				}
			}
		}
	})
	invert(a.likes, func(yield func(r, v uint32)) {
		for r, live := range p.live {
			if !live {
				continue
			}
			for _, who := range p.likes[r] {
				if ar, ok := a.row(AccountID(who)); ok {
					yield(ar, uint32(r+1))
				}
			}
		}
	})
	return nil
}

// Commit installs a staged section that has passed Finish, replacing
// the graph's tables wholesale.
func (g *Graph) Commit(s *Staged) {
	g.phase.CheckWrite("socialgraph.Commit")
	g.nextAcct, g.nextPost = s.nextAcct, s.nextPost
	g.accts, g.posts = s.accts, s.posts
}

// ReserveAccounts mints n account IDs as empty, dead rows, for a
// restore that commits a snapshot's tables over them (see
// platform.ReserveAccounts). It returns the first reserved ID.
func (g *Graph) ReserveAccounts(n int) AccountID {
	g.phase.CheckWrite("socialgraph.ReserveAccounts")
	if uint64(g.nextAcct)+uint64(n) > math.MaxUint32 {
		panic("socialgraph: account ID space exceeds uint32 adjacency")
	}
	first := g.nextAcct + 1
	g.nextAcct += AccountID(n)
	g.accts.grow(n)
	return first
}
