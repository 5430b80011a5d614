package socialgraph

import (
	"fmt"
	"math"
	"time"
)

// Snapshot/restore support (see internal/persistence). The serialized
// form lists live accounts and posts in ascending ID order and stores
// only one side of each symmetric relation: follower sets, per-account
// like sets, and per-account comment counts are derived on restore from
// followee sets, post like sets, and post comment lists respectively.
// Rows are already in ID order and the in-memory adjacency is kept
// sorted, so flattening is a straight widening copy. Both operations run
// on the world's goroutine at day boundaries, never during a plan phase.

// State is the complete mutable state of a Graph.
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

// SnapshotState captures the graph's complete mutable state.
func (g *Graph) SnapshotState() *State {
	st := &State{NextAcct: g.nextAcct, NextPost: g.nextPost}
	a, p := &g.accts, &g.posts
	for r, live := range a.live {
		if !live {
			continue
		}
		st.Accounts = append(st.Accounts, AccountState{
			ID:        AccountID(r + 1),
			Created:   a.created[r],
			Followees: widen[AccountID](a.followees[r]),
			Posts:     append([]PostID(nil), a.posts[r]...),
		})
	}
	for r, live := range p.live {
		if !live {
			continue
		}
		st.Posts = append(st.Posts, PostState{
			ID:       PostID(r + 1),
			Author:   AccountID(p.authors[r]),
			Created:  p.created[r],
			Likes:    widen[AccountID](p.likes[r]),
			Comments: append([]Comment(nil), p.comments[r]...),
		})
	}
	return st
}

// validate checks the structural invariants RestoreState relies on:
// counters within the uint32 ID space, and account and post IDs at
// least 1, strictly ascending and not past their counter — which also
// bounds every ID another record refers to. The tables are sized by the
// counters, so a caller restoring untrusted input must bound them too
// (core.RestoreWorld checks them against the platform's account and
// post lists).
func (st *State) validate() error {
	if uint64(st.NextAcct) > math.MaxUint32 || uint64(st.NextPost) > math.MaxUint32 {
		return fmt.Errorf("socialgraph: ID counters %d/%d exceed the uint32 ID space", st.NextAcct, st.NextPost)
	}
	acct := func(what string, id AccountID) error {
		if id < 1 || id > st.NextAcct {
			return fmt.Errorf("socialgraph: %s account ID %d outside [1, %d]", what, id, st.NextAcct)
		}
		return nil
	}
	post := func(what string, pid PostID) error {
		if pid < 1 || pid > st.NextPost {
			return fmt.Errorf("socialgraph: %s post ID %d outside [1, %d]", what, pid, st.NextPost)
		}
		return nil
	}
	var prevAcct AccountID
	for i := range st.Accounts {
		as := &st.Accounts[i]
		if err := acct("listed", as.ID); err != nil {
			return err
		}
		if as.ID <= prevAcct {
			return fmt.Errorf("socialgraph: account ID %d follows %d: IDs must be strictly ascending", as.ID, prevAcct)
		}
		prevAcct = as.ID
		for _, f := range as.Followees {
			if err := acct("followed", f); err != nil {
				return err
			}
		}
		for _, pid := range as.Posts {
			if err := post("authored", pid); err != nil {
				return err
			}
		}
	}
	var prevPost PostID
	for i := range st.Posts {
		ps := &st.Posts[i]
		if err := post("listed", ps.ID); err != nil {
			return err
		}
		if ps.ID <= prevPost {
			return fmt.Errorf("socialgraph: post ID %d follows %d: IDs must be strictly ascending", ps.ID, prevPost)
		}
		prevPost = ps.ID
		if err := acct("authoring", ps.Author); err != nil {
			return err
		}
		for _, who := range ps.Likes {
			if err := acct("liking", who); err != nil {
				return err
			}
		}
		for _, c := range ps.Comments {
			if err := acct("commenting", c.Author); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreState overwrites the graph's state with a snapshot, rebuilding
// the derived sides of each symmetric relation. Derived sets come out
// sorted for free: accounts and posts are visited in ascending-ID
// order, so each append lands in order. A snapshot that breaks the
// invariants validate checks is rejected before anything is
// overwritten.
func (g *Graph) RestoreState(st *State) error {
	g.phase.CheckWrite("socialgraph.RestoreState")
	if err := st.validate(); err != nil {
		return err
	}
	g.nextAcct, g.nextPost = st.NextAcct, st.NextPost
	a, p := &g.accts, &g.posts
	a.reset()
	p.reset()
	a.grow(int(st.NextAcct))
	p.grow(int(st.NextPost))
	for i := range st.Accounts {
		as := &st.Accounts[i]
		r := uint32(as.ID - 1)
		a.revive(r, as.Created)
		if n := len(as.Followees); n > 0 {
			fees := make([]uint32, n)
			for j, f := range as.Followees {
				fees[j] = uint32(f)
			}
			a.followees[r] = fees
		}
		if len(as.Posts) > 0 {
			a.posts[r] = append([]PostID(nil), as.Posts...)
		}
	}
	// Derive follower sets now that every account exists.
	for i := range st.Accounts {
		as := &st.Accounts[i]
		for _, f := range as.Followees {
			if r, ok := a.row(f); ok {
				a.followers[r] = append(a.followers[r], uint32(as.ID))
			}
		}
	}
	for i := range st.Posts {
		ps := &st.Posts[i]
		r := uint32(ps.ID - 1)
		p.revive(r, ps.Author, ps.Created)
		if n := len(ps.Likes); n > 0 {
			likes := make([]uint32, n)
			for j, who := range ps.Likes {
				likes[j] = uint32(who)
			}
			p.likes[r] = likes
		}
		if len(ps.Comments) > 0 {
			p.comments[r] = append([]Comment(nil), ps.Comments...)
		}
		// Derive the per-account like sets and comment counts.
		pid := uint32(ps.ID)
		for _, who := range ps.Likes {
			if r, ok := a.row(who); ok {
				a.likes[r] = append(a.likes[r], pid)
			}
		}
		for _, c := range ps.Comments {
			if r, ok := a.row(c.Author); ok {
				a.bumpCommented(r, pid, 1)
			}
		}
	}
	return nil
}
