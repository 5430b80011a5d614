package socialgraph

import (
	"math"
	"slices"
	"sort"
	"time"

	"footsteps/internal/clock"
)

// Struct-of-arrays storage for the graph's two record families: one
// acctTable and one postTable per graph, each a set of parallel slices
// indexed by row. IDs are minted densely from 1 by CreateAccount and
// AddPost and never recycled, so the row of ID n is n-1: a lookup is a
// bounds check, not a map probe. Follow adjacency, like sets, and
// comment tallies are sorted []uint32 chunks instead of
// map[ID]struct{} sets — 4 bytes per edge endpoint and zero per-set
// header cost beyond one slice, where each map cost ~48 B empty and
// ~50 B per element. IDs fit uint32 because the minting paths enforce
// the bound.
//
// Rows are never recycled: DeleteAccount tombstones the row (live
// false, adjacency released) so the ID keeps resolving to "gone"
// forever. Sorted-set mutation is O(degree) memmove — fine for the
// honeypot-scale studies that run with GraphWrites on; the
// population-scale business sim keeps GraphWrites off and never
// mutates adjacency.

// u32 narrows a sequentially minted ID, whose bound the minting path
// already enforces.
func u32(x uint64) uint32 {
	if x > math.MaxUint32 {
		panic("socialgraph: ID exceeds uint32 range")
	}
	return uint32(x)
}

// insertSorted adds v to sorted set s, reporting false (and the
// unchanged set) when already present.
func insertSorted(s []uint32, v uint32) ([]uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// removeSorted deletes v from sorted set s, reporting false when absent.
func removeSorted(s []uint32, v uint32) ([]uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

// containsSorted reports whether sorted set s holds v.
func containsSorted(s []uint32, v uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// pidCount is one per-account comment tally: how many comments the
// account has on post pid. Kept sorted by pid.
type pidCount struct {
	pid uint32
	n   int32
}

// acctTable holds the account rows; row r is AccountID r+1.
type acctTable struct {
	live  []bool
	nLive int

	created   []int64    // clock.UnixNano
	followers [][]uint32 // sorted AccountIDs following this row
	followees [][]uint32 // sorted AccountIDs this row follows
	posts     [][]PostID // creation order
	likes     [][]uint32 // sorted PostIDs this row liked
	commented [][]pidCount
}

// row returns the row of a live account. ID 0 wraps past every row.
func (t *acctTable) row(id AccountID) (uint32, bool) {
	r := uint64(id) - 1
	if r >= uint64(len(t.live)) || !t.live[r] {
		return 0, false
	}
	return uint32(r), true
}

// reserve makes room for n more rows, so growing by them copies no
// column.
func (t *acctTable) reserve(n int) {
	t.live = slices.Grow(t.live, n)
	t.created = slices.Grow(t.created, n)
	t.followers = slices.Grow(t.followers, n)
	t.followees = slices.Grow(t.followees, n)
	t.posts = slices.Grow(t.posts, n)
	t.likes = slices.Grow(t.likes, n)
	t.commented = slices.Grow(t.commented, n)
}

// grow appends n dead rows.
func (t *acctTable) grow(n int) {
	t.live = append(t.live, make([]bool, n)...)
	t.created = append(t.created, make([]int64, n)...)
	t.followers = append(t.followers, make([][]uint32, n)...)
	t.followees = append(t.followees, make([][]uint32, n)...)
	t.posts = append(t.posts, make([][]PostID, n)...)
	t.likes = append(t.likes, make([][]uint32, n)...)
	t.commented = append(t.commented, make([][]pidCount, n)...)
}

// revive marks row r live, created at now.
func (t *acctTable) revive(r uint32, now time.Time) {
	t.live[r] = true
	t.nLive++
	t.created[r] = clock.UnixNano(now)
}

// tombstone marks row r deleted and releases its per-row collections.
func (t *acctTable) tombstone(r uint32) {
	t.live[r] = false
	t.nLive--
	t.followers[r] = nil
	t.followees[r] = nil
	t.posts[r] = nil
	t.likes[r] = nil
	t.commented[r] = nil
}

// bumpCommented adds delta to row r's tally for pid, dropping the entry
// when it reaches zero.
func (t *acctTable) bumpCommented(r uint32, pid uint32, delta int32) {
	cs := t.commented[r]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].pid >= pid })
	if i < len(cs) && cs[i].pid == pid {
		cs[i].n += delta
		if cs[i].n <= 0 {
			t.commented[r] = append(cs[:i], cs[i+1:]...)
		}
		return
	}
	if delta <= 0 {
		return
	}
	cs = append(cs, pidCount{})
	copy(cs[i+1:], cs[i:])
	cs[i] = pidCount{pid: pid, n: delta}
	t.commented[r] = cs
}

// postTable holds the post rows; row r is PostID r+1.
type postTable struct {
	live []bool

	authors  []uint32
	created  []time.Time
	likes    [][]uint32 // sorted AccountIDs that liked this row
	comments [][]Comment
}

// row returns the row of a live post. ID 0 wraps past every row.
func (t *postTable) row(pid PostID) (uint32, bool) {
	r := uint64(pid) - 1
	if r >= uint64(len(t.live)) || !t.live[r] {
		return 0, false
	}
	return uint32(r), true
}

// grow appends n dead rows.
func (t *postTable) grow(n int) {
	t.live = append(t.live, make([]bool, n)...)
	t.authors = append(t.authors, make([]uint32, n)...)
	t.created = append(t.created, make([]time.Time, n)...)
	t.likes = append(t.likes, make([][]uint32, n)...)
	t.comments = append(t.comments, make([][]Comment, n)...)
}

// revive marks row r live, authored by author at now.
func (t *postTable) revive(r uint32, author AccountID, now time.Time) {
	t.live[r] = true
	t.authors[r] = u32(uint64(author))
	t.created[r] = now
}

func (t *postTable) tombstone(r uint32) {
	t.live[r] = false
	t.authors[r] = 0
	t.likes[r] = nil
	t.comments[r] = nil
}
