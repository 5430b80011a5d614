package platform

import (
	"sort"
	"time"
)

// accountTable is the platform's account records laid out
// struct-of-arrays: one slice per field, indexed by row. Account IDs are
// minted densely from 1 by the social graph, and the platform registers
// every account the moment its ID is minted, so the row of AccountID n
// is n-1 and a lookup is a bounds check, not a map probe. The table
// stores an account in a handful of contiguous array cells instead of a
// heap object plus two maps — the difference between ~1 KB and ~200 B
// per account, which is what lets a million-account world fit in a few
// GB (see docs/PERFORMANCE.md, "Scaling to 1M accounts").
//
// Rows are never recycled: a deleted account keeps its row with
// deleted[r] set. Per-account small collections (login-country tallies,
// per-post like counts) are kept as sorted slices — they are tiny in
// practice, a sorted slice is half the size of a map, and keeping them
// sorted makes snapshot encoding a straight copy.
type accountTable struct {
	usernames     []string
	passwords     []string
	profiles      []Profile
	homeCountries []string
	created       []time.Time
	deleted       []bool
	sessionEpochs []uint64
	logins        [][]CountryCount // sorted by country
	posts         [][]PostID       // creation order
	likeCounts    [][]PostCount    // sorted by post ID (stateless-graph mode)
}

// row returns the row for id, if the account has ever been registered
// (deleted rows included). ID 0 wraps past every row.
func (t *accountTable) row(id AccountID) (uint32, bool) {
	r := uint64(id) - 1
	return uint32(r), r < uint64(len(t.usernames))
}

// live returns the row for id if the account exists and is not deleted.
func (t *accountTable) live(id AccountID) (uint32, bool) {
	r, ok := t.row(id)
	return r, ok && !t.deleted[r]
}

// add appends the row for id, which must be the next ID in sequence.
func (t *accountTable) add(id AccountID, username, password string, prof Profile, home string, created time.Time) uint32 {
	if uint64(id) != uint64(len(t.usernames))+1 {
		panic("platform: account IDs must be registered densely in minting order")
	}
	r := uint32(id - 1)
	t.usernames = append(t.usernames, username)
	t.passwords = append(t.passwords, password)
	t.profiles = append(t.profiles, prof)
	t.homeCountries = append(t.homeCountries, home)
	t.created = append(t.created, created)
	t.deleted = append(t.deleted, false)
	t.sessionEpochs = append(t.sessionEpochs, 0)
	t.logins = append(t.logins, nil)
	t.posts = append(t.posts, nil)
	t.likeCounts = append(t.likeCounts, nil)
	return r
}

// reset drops every row, keeping capacity for the restore that follows.
func (t *accountTable) reset() {
	t.usernames = t.usernames[:0]
	t.passwords = t.passwords[:0]
	t.profiles = t.profiles[:0]
	t.homeCountries = t.homeCountries[:0]
	t.created = t.created[:0]
	t.deleted = t.deleted[:0]
	t.sessionEpochs = t.sessionEpochs[:0]
	t.logins = t.logins[:0]
	t.posts = t.posts[:0]
	t.likeCounts = t.likeCounts[:0]
}

// bumpLogin tallies one login from country on row r, keeping the tally
// sorted by country. The slice has one entry per distinct country the
// account ever logged in from — one or two, in practice — so the
// sorted-insert memmove is noise and steady-state revisits allocate
// nothing.
func (t *accountTable) bumpLogin(r uint32, country string) {
	ls := t.logins[r]
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Country >= country })
	if i < len(ls) && ls[i].Country == country {
		ls[i].N++
		return
	}
	ls = append(ls, CountryCount{})
	copy(ls[i+1:], ls[i:])
	ls[i] = CountryCount{Country: country, N: 1}
	t.logins[r] = ls
}

// bumpLike tallies one like on post pid owned by row r (stateless-graph
// mode), keeping the tally sorted by post ID. Re-likes of a post the
// row already tracks allocate nothing.
func (t *accountTable) bumpLike(r uint32, pid PostID) {
	lc := t.likeCounts[r]
	i := sort.Search(len(lc), func(i int) bool { return lc[i].Post >= pid })
	if i < len(lc) && lc[i].Post == pid {
		lc[i].N++
		return
	}
	lc = append(lc, PostCount{})
	copy(lc[i+1:], lc[i:])
	lc[i] = PostCount{Post: pid, N: 1}
	t.likeCounts[r] = lc
}

// likeCount returns row r's tally for pid.
func (t *accountTable) likeCount(r uint32, pid PostID) int {
	lc := t.likeCounts[r]
	i := sort.Search(len(lc), func(i int) bool { return lc[i].Post >= pid })
	if i < len(lc) && lc[i].Post == pid {
		return lc[i].N
	}
	return 0
}
