package platform

import (
	"slices"
	"sort"
	"time"

	"footsteps/internal/clock"
)

// accountTable is the platform's account records laid out
// struct-of-arrays: one slice per field, indexed by row. Account IDs are
// minted densely from 1 by the social graph, and the platform registers
// every account the moment its ID is minted, so the row of AccountID n
// is n-1 and a lookup is a bounds check, not a map probe.
//
// A registration costs one cell per column and no heap object of its
// own. A world build reserves every column once (reserve), usernames
// and passwords are substrings of one string per registration batch,
// the initial photo lists are cut from one array per batch, and the
// instant and home-country columns hold no pointers. A built
// 100k-account world holds under 0.1 heap objects per account, where
// per-row strings, posts slices and member records made it 5.1 (see
// docs/PERFORMANCE.md, "Scaling to 1M accounts").
//
// Rows are never recycled: a deleted account keeps its row with
// deleted[r] set. Per-account small collections (login-country tallies,
// per-post like counts) are kept as sorted slices — they are tiny in
// practice, a sorted slice is half the size of a map, and keeping them
// sorted makes snapshot encoding a straight copy. A row's slice never
// has room past its own length, so an append reallocates that row
// alone, never a neighbour sharing its backing array.
type accountTable struct {
	usernames     []string
	passwords     []string
	profiles      []Profile
	homes         []uint32 // index into countries
	created       []int64  // clock.UnixNano
	deleted       []bool
	sessionEpochs []uint64
	logins        [][]CountryCount // sorted by country
	posts         [][]PostID       // creation order
	likeCounts    [][]PostCount    // sorted by post ID (stateless-graph mode)

	// countries lists each distinct home country once, in first-seen
	// order; countryCodes inverts it.
	countries    []string
	countryCodes map[string]uint32
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
	t.homes = append(t.homes, t.countryCode(home))
	t.created = append(t.created, clock.UnixNano(created))
	t.deleted = append(t.deleted, false)
	t.sessionEpochs = append(t.sessionEpochs, 0)
	t.logins = append(t.logins, nil)
	t.posts = append(t.posts, nil)
	t.likeCounts = append(t.likeCounts, nil)
	return r
}

// reserve makes room for n more rows, so the next n adds copy no
// column.
func (t *accountTable) reserve(n int) {
	t.usernames = slices.Grow(t.usernames, n)
	t.passwords = slices.Grow(t.passwords, n)
	t.profiles = slices.Grow(t.profiles, n)
	t.homes = slices.Grow(t.homes, n)
	t.created = slices.Grow(t.created, n)
	t.deleted = slices.Grow(t.deleted, n)
	t.sessionEpochs = slices.Grow(t.sessionEpochs, n)
	t.logins = slices.Grow(t.logins, n)
	t.posts = slices.Grow(t.posts, n)
	t.likeCounts = slices.Grow(t.likeCounts, n)
}

// countryCode returns home's index in countries, adding it if new.
// Registrations come in runs from one country, so the previous row's
// code is tried before the map.
func (t *accountTable) countryCode(home string) uint32 {
	if n := len(t.homes); n > 0 && t.countries[t.homes[n-1]] == home {
		return t.homes[n-1]
	}
	if c, ok := t.countryCodes[home]; ok {
		return c
	}
	if t.countryCodes == nil {
		t.countryCodes = make(map[string]uint32)
	}
	c := uint32(len(t.countries))
	t.countries = append(t.countries, home)
	t.countryCodes[home] = c
	return c
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
