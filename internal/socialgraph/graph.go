// Package socialgraph stores the platform's social state: accounts, follow
// edges, posts, likes, and comments.
//
// The graph is the system of record beneath internal/platform. It knows
// nothing about sessions, credentials, or abuse — it only enforces the
// structural rules of the medium (no self-follows, likes require an existing
// post, deleting an account removes everything it ever did, mirroring the
// paper's honeypot-deletion semantics: "when deleting a honeypot account,
// all actions to or from the account are eventually removed").
//
// Records are struct-of-arrays tables addressed by ID, with
// sorted-[]uint32 adjacency (see table.go), sized for million-account
// worlds. The graph is single-writer and holds no locks: reads may run
// in a step section's plan phase, but every mutation runs outside any
// plan phase — the ownership rule step.Phase enforces in race-detector
// builds.
package socialgraph

import (
	"errors"
	"fmt"
	"math"
	"time"

	"footsteps/internal/step"
)

// AccountID identifies an account. IDs are assigned by the graph and are
// never reused, even after deletion.
type AccountID uint64

// PostID identifies a post (the paper's "photo" / "media").
type PostID uint64

// Errors returned by graph operations.
var (
	ErrNoAccount  = errors.New("socialgraph: no such account")
	ErrNoPost     = errors.New("socialgraph: no such post")
	ErrSelfAction = errors.New("socialgraph: account cannot target itself")
)

// Comment is a single comment on a post.
type Comment struct {
	Author AccountID
	Text   string
	At     time.Time
}

// Graph is the mutable social graph.
type Graph struct {
	accts acctTable
	posts postTable

	// nextAcct and nextPost are the last IDs minted; the tables hold
	// exactly that many rows.
	nextAcct AccountID
	nextPost PostID

	phase *step.Phase
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// SetPhase installs the world's phase word; every mutator checks it
// (see step.Phase). nil, the default, checks nothing.
func (g *Graph) SetPhase(ph *step.Phase) { g.phase = ph }

// CreateAccount adds a fresh account and returns its ID.
func (g *Graph) CreateAccount(now time.Time) AccountID {
	g.phase.CheckWrite("socialgraph.CreateAccount")
	if uint64(g.nextAcct) >= math.MaxUint32 {
		panic("socialgraph: account ID space exceeds uint32 adjacency")
	}
	g.nextAcct++
	id := g.nextAcct
	g.accts.grow(1)
	g.accts.revive(uint32(id-1), now)
	return id
}

// Grow makes room for n more accounts, so creating them copies no
// column.
func (g *Graph) Grow(n int) { g.accts.reserve(n) }

// Exists reports whether id is a live account.
func (g *Graph) Exists(id AccountID) bool {
	_, ok := g.accts.row(id)
	return ok
}

// NumAccounts returns the number of live accounts.
func (g *Graph) NumAccounts() int { return g.accts.nLive }

// DeleteAccount removes the account and every trace of it: its posts (with
// all likes and comments they received), its follow edges in both
// directions, and all likes/comments it placed on others' posts.
func (g *Graph) DeleteAccount(id AccountID) error {
	g.phase.CheckWrite("socialgraph.DeleteAccount")
	a, p := &g.accts, &g.posts
	r, ok := a.row(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoAccount, id)
	}
	me := u32(uint64(id))
	// Sever follow edges.
	for _, f := range a.followers[r] {
		if fr, ok := a.row(AccountID(f)); ok {
			a.followees[fr], _ = removeSorted(a.followees[fr], me)
		}
	}
	for _, f := range a.followees[r] {
		if fr, ok := a.row(AccountID(f)); ok {
			a.followers[fr], _ = removeSorted(a.followers[fr], me)
		}
	}
	// Remove likes this account placed.
	for _, pid := range a.likes[r] {
		if pr, ok := p.row(PostID(pid)); ok {
			p.likes[pr], _ = removeSorted(p.likes[pr], me)
		}
	}
	// Remove comments this account placed.
	for _, pc := range a.commented[r] {
		pr, ok := p.row(PostID(pc.pid))
		if !ok {
			continue
		}
		kept := p.comments[pr][:0]
		for _, c := range p.comments[pr] {
			if c.Author != id {
				kept = append(kept, c)
			}
		}
		p.comments[pr] = kept
	}
	// Remove this account's own posts and the actions on them.
	for _, pid := range a.posts[r] {
		pr, ok := p.row(pid)
		if !ok {
			continue
		}
		p32 := u32(uint64(pid))
		for _, liker := range p.likes[pr] {
			if lr, ok := a.row(AccountID(liker)); ok {
				a.likes[lr], _ = removeSorted(a.likes[lr], p32)
			}
		}
		for _, c := range p.comments[pr] {
			if cr, ok := a.row(c.Author); ok {
				a.bumpCommented(cr, p32, -1)
			}
		}
		p.tombstone(pr)
	}
	a.tombstone(r)
	return nil
}

// Follow adds the edge from → to. Following twice is a no-op reported via
// the bool result (false when the edge already existed).
func (g *Graph) Follow(from, to AccountID) (bool, error) {
	g.phase.CheckWrite("socialgraph.Follow")
	if from == to {
		return false, ErrSelfAction
	}
	a := &g.accts
	fr, ok := a.row(from)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoAccount, from)
	}
	tr, ok := a.row(to)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoAccount, to)
	}
	fees, added := insertSorted(a.followees[fr], u32(uint64(to)))
	if !added {
		return false, nil
	}
	a.followees[fr] = fees
	a.followers[tr], _ = insertSorted(a.followers[tr], u32(uint64(from)))
	return true, nil
}

// Unfollow removes the edge from → to. Removing a missing edge is a no-op
// reported via the bool result.
func (g *Graph) Unfollow(from, to AccountID) (bool, error) {
	g.phase.CheckWrite("socialgraph.Unfollow")
	a := &g.accts
	fr, ok := a.row(from)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoAccount, from)
	}
	tr, ok := a.row(to)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoAccount, to)
	}
	fees, had := removeSorted(a.followees[fr], u32(uint64(to)))
	if !had {
		return false, nil
	}
	a.followees[fr] = fees
	a.followers[tr], _ = removeSorted(a.followers[tr], u32(uint64(from)))
	return true, nil
}

// Follows reports whether the edge from → to exists.
func (g *Graph) Follows(from, to AccountID) bool {
	r, ok := g.accts.row(from)
	return ok && containsSorted(g.accts.followees[r], u32(uint64(to)))
}

// InDegree returns the follower count (the paper's "followers").
func (g *Graph) InDegree(id AccountID) int {
	if r, ok := g.accts.row(id); ok {
		return len(g.accts.followers[r])
	}
	return 0
}

// OutDegree returns the followee count (the paper's "following").
func (g *Graph) OutDegree(id AccountID) int {
	if r, ok := g.accts.row(id); ok {
		return len(g.accts.followees[r])
	}
	return 0
}

// Followers returns a snapshot of the accounts following id, in
// ascending ID order.
func (g *Graph) Followers(id AccountID) []AccountID {
	r, ok := g.accts.row(id)
	if !ok {
		return nil
	}
	return widen[AccountID](g.accts.followers[r])
}

// Followees returns a snapshot of the accounts id follows, in ascending
// ID order.
func (g *Graph) Followees(id AccountID) []AccountID {
	r, ok := g.accts.row(id)
	if !ok {
		return nil
	}
	return widen[AccountID](g.accts.followees[r])
}

// widen copies a compressed ID set out to the public 64-bit type.
func widen[T ~uint64](s []uint32) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	for i, v := range s {
		out[i] = T(v)
	}
	return out
}

// AddPosts creates len(pids) posts authored by id, all at now, and
// writes their IDs into pids. When id has no posts yet, pids becomes its
// post list, capped at its length, so a batch of new accounts can list
// their posts in one array the caller shares; the caller must not write
// pids afterwards.
func (g *Graph) AddPosts(id AccountID, now time.Time, pids []PostID) error {
	g.phase.CheckWrite("socialgraph.AddPost")
	r, ok := g.accts.row(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoAccount, id)
	}
	if len(pids) == 0 {
		return nil
	}
	if uint64(g.nextPost)+uint64(len(pids)) > math.MaxUint32 {
		panic("socialgraph: post ID space exceeds uint32 adjacency")
	}
	g.posts.grow(len(pids))
	for i := range pids {
		g.nextPost++
		pids[i] = g.nextPost
		g.posts.revive(uint32(pids[i]-1), id, now)
	}
	if len(g.accts.posts[r]) == 0 {
		g.accts.posts[r] = pids[:len(pids):len(pids)]
	} else {
		g.accts.posts[r] = append(g.accts.posts[r], pids...)
	}
	return nil
}

// Posts returns the IDs of id's posts in creation order.
func (g *Graph) Posts(id AccountID) []PostID {
	r, ok := g.accts.row(id)
	if !ok {
		return nil
	}
	return append([]PostID(nil), g.accts.posts[r]...)
}

// PostAuthor returns the author of pid.
func (g *Graph) PostAuthor(pid PostID) (AccountID, error) {
	r, ok := g.posts.row(pid)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoPost, pid)
	}
	return AccountID(g.posts.authors[r]), nil
}

// Like records who liking pid. Liking your own post is allowed (as on the
// real platform); liking twice is a no-op reported via the bool result.
func (g *Graph) Like(who AccountID, pid PostID) (bool, error) {
	g.phase.CheckWrite("socialgraph.Like")
	ar, ok := g.accts.row(who)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoAccount, who)
	}
	pr, ok := g.posts.row(pid)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoPost, pid)
	}
	likes, added := insertSorted(g.posts.likes[pr], u32(uint64(who)))
	if !added {
		return false, nil
	}
	g.posts.likes[pr] = likes
	g.accts.likes[ar], _ = insertSorted(g.accts.likes[ar], u32(uint64(pid)))
	return true, nil
}

// Unlike removes who's like from pid.
func (g *Graph) Unlike(who AccountID, pid PostID) (bool, error) {
	g.phase.CheckWrite("socialgraph.Unlike")
	ar, ok := g.accts.row(who)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoAccount, who)
	}
	pr, ok := g.posts.row(pid)
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoPost, pid)
	}
	likes, had := removeSorted(g.posts.likes[pr], u32(uint64(who)))
	if !had {
		return false, nil
	}
	g.posts.likes[pr] = likes
	g.accts.likes[ar], _ = removeSorted(g.accts.likes[ar], u32(uint64(pid)))
	return true, nil
}

// LikeCount returns the number of likes on pid.
func (g *Graph) LikeCount(pid PostID) int {
	if r, ok := g.posts.row(pid); ok {
		return len(g.posts.likes[r])
	}
	return 0
}

// Likers returns a snapshot of the accounts that liked pid, in ascending
// ID order.
func (g *Graph) Likers(pid PostID) []AccountID {
	r, ok := g.posts.row(pid)
	if !ok {
		return nil
	}
	return widen[AccountID](g.posts.likes[r])
}

// AddComment appends a comment by who to pid.
func (g *Graph) AddComment(who AccountID, pid PostID, text string, now time.Time) error {
	g.phase.CheckWrite("socialgraph.AddComment")
	ar, ok := g.accts.row(who)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoAccount, who)
	}
	pr, ok := g.posts.row(pid)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoPost, pid)
	}
	g.posts.comments[pr] = append(g.posts.comments[pr], Comment{Author: who, Text: text, At: now})
	g.accts.bumpCommented(ar, u32(uint64(pid)), 1)
	return nil
}

// Comments returns a snapshot of pid's comments in posting order.
func (g *Graph) Comments(pid PostID) []Comment {
	r, ok := g.posts.row(pid)
	if !ok {
		return nil
	}
	return append([]Comment(nil), g.posts.comments[r]...)
}

// EngagementRate computes the influencer metric the services promote (§2):
//
//	ER = (likes + comments on the user's posts) / followers
//
// It returns 0 for accounts with no followers, missing accounts, or
// accounts with no posts.
func (g *Graph) EngagementRate(id AccountID) float64 {
	r, ok := g.accts.row(id)
	if !ok || len(g.accts.followers[r]) == 0 {
		return 0
	}
	total := 0
	for _, pid := range g.accts.posts[r] {
		if pr, ok := g.posts.row(pid); ok {
			total += len(g.posts.likes[pr]) + len(g.posts.comments[pr])
		}
	}
	return float64(total) / float64(len(g.accts.followers[r]))
}
