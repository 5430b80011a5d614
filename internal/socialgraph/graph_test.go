package socialgraph

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"footsteps/internal/rng"
)

var t0 = time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)

func TestCreateAccountIDsUnique(t *testing.T) {
	t.Parallel()
	g := New()
	seen := make(map[AccountID]bool)
	for i := 0; i < 100; i++ {
		id := g.CreateAccount(t0)
		if seen[id] {
			t.Fatalf("duplicate account ID %d", id)
		}
		seen[id] = true
	}
	if g.NumAccounts() != 100 {
		t.Fatalf("NumAccounts = %d", g.NumAccounts())
	}
}

func TestFollowUnfollow(t *testing.T) {
	t.Parallel()
	g := New()
	a, b := g.CreateAccount(t0), g.CreateAccount(t0)
	ok, err := g.Follow(a, b)
	if err != nil || !ok {
		t.Fatalf("Follow = %v, %v", ok, err)
	}
	if !g.Follows(a, b) || g.Follows(b, a) {
		t.Fatal("edge direction wrong")
	}
	if g.OutDegree(a) != 1 || g.InDegree(b) != 1 || g.InDegree(a) != 0 {
		t.Fatal("degrees wrong after follow")
	}
	// Duplicate follow is a no-op.
	if ok, _ := g.Follow(a, b); ok {
		t.Fatal("duplicate follow reported as new")
	}
	if g.OutDegree(a) != 1 {
		t.Fatal("duplicate follow changed degree")
	}
	ok, err = g.Unfollow(a, b)
	if err != nil || !ok {
		t.Fatalf("Unfollow = %v, %v", ok, err)
	}
	if g.Follows(a, b) || g.OutDegree(a) != 0 || g.InDegree(b) != 0 {
		t.Fatal("unfollow did not remove edge")
	}
	if ok, _ := g.Unfollow(a, b); ok {
		t.Fatal("unfollow of missing edge reported as removal")
	}
}

func TestSelfFollowRejected(t *testing.T) {
	t.Parallel()
	g := New()
	a := g.CreateAccount(t0)
	if _, err := g.Follow(a, a); !errors.Is(err, ErrSelfAction) {
		t.Fatalf("self-follow error = %v", err)
	}
}

func TestFollowMissingAccount(t *testing.T) {
	t.Parallel()
	g := New()
	a := g.CreateAccount(t0)
	if _, err := g.Follow(a, 999); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Follow(999, a); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
}

func TestPostsAndLikes(t *testing.T) {
	t.Parallel()
	g := New()
	author, fan := g.CreateAccount(t0), g.CreateAccount(t0)
	pid, err := g.AddPost(author, t0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.PostAuthor(pid); got != author {
		t.Fatalf("PostAuthor = %d", got)
	}
	if ok, err := g.Like(fan, pid); err != nil || !ok {
		t.Fatalf("Like = %v, %v", ok, err)
	}
	if g.LikeCount(pid) != 1 {
		t.Fatalf("LikeCount = %d", g.LikeCount(pid))
	}
	if ok, _ := g.Like(fan, pid); ok {
		t.Fatal("duplicate like reported as new")
	}
	likers := g.Likers(pid)
	if len(likers) != 1 || likers[0] != fan {
		t.Fatalf("Likers = %v", likers)
	}
	if ok, err := g.Unlike(fan, pid); err != nil || !ok {
		t.Fatalf("Unlike = %v, %v", ok, err)
	}
	if g.LikeCount(pid) != 0 {
		t.Fatal("unlike did not remove like")
	}
}

func TestLikeMissingPost(t *testing.T) {
	t.Parallel()
	g := New()
	a := g.CreateAccount(t0)
	if _, err := g.Like(a, 42); !errors.Is(err, ErrNoPost) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Like(999, 42); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
}

func TestComments(t *testing.T) {
	t.Parallel()
	g := New()
	author, c1 := g.CreateAccount(t0), g.CreateAccount(t0)
	pid, _ := g.AddPost(author, t0)
	if err := g.AddComment(c1, pid, "nice", t0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddComment(c1, pid, "really nice", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	cs := g.Comments(pid)
	if len(cs) != 2 || cs[0].Text != "nice" || cs[1].Author != c1 {
		t.Fatalf("Comments = %+v", cs)
	}
}

func TestEngagementRate(t *testing.T) {
	t.Parallel()
	g := New()
	author := g.CreateAccount(t0)
	var fans []AccountID
	for i := 0; i < 4; i++ {
		f := g.CreateAccount(t0)
		fans = append(fans, f)
		g.Follow(f, author)
	}
	pid, _ := g.AddPost(author, t0)
	g.Like(fans[0], pid)
	g.Like(fans[1], pid)
	g.AddComment(fans[2], pid, "wow", t0)
	// ER = (2 likes + 1 comment) / 4 followers.
	if got := g.EngagementRate(author); got != 0.75 {
		t.Fatalf("EngagementRate = %v, want 0.75", got)
	}
	if g.EngagementRate(fans[0]) != 0 {
		t.Fatal("ER for account with no followers should be 0")
	}
	if g.EngagementRate(9999) != 0 {
		t.Fatal("ER for missing account should be 0")
	}
}

func TestDeleteAccountRemovesAllTraces(t *testing.T) {
	t.Parallel()
	g := New()
	honeypot := g.CreateAccount(t0)
	other := g.CreateAccount(t0)

	// Honeypot follows other, other follows honeypot.
	g.Follow(honeypot, other)
	g.Follow(other, honeypot)
	// Honeypot likes and comments on other's post.
	theirPost, _ := g.AddPost(other, t0)
	g.Like(honeypot, theirPost)
	g.AddComment(honeypot, theirPost, "hi", t0)
	// Other likes honeypot's post.
	myPost, _ := g.AddPost(honeypot, t0)
	g.Like(other, myPost)

	if err := g.DeleteAccount(honeypot); err != nil {
		t.Fatal(err)
	}
	if g.Exists(honeypot) {
		t.Fatal("account still exists")
	}
	if g.InDegree(other) != 0 || g.OutDegree(other) != 0 {
		t.Fatalf("dangling follow edges: in=%d out=%d", g.InDegree(other), g.OutDegree(other))
	}
	if g.LikeCount(theirPost) != 0 {
		t.Fatal("deleted account's like survives")
	}
	if len(g.Comments(theirPost)) != 0 {
		t.Fatal("deleted account's comment survives")
	}
	if _, err := g.PostAuthor(myPost); !errors.Is(err, ErrNoPost) {
		t.Fatal("deleted account's post survives")
	}
	// other's internal like-index entry for myPost must be gone: deleting
	// other now must not panic or error.
	if err := g.DeleteAccount(other); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissingAccount(t *testing.T) {
	t.Parallel()
	if err := New().DeleteAccount(7); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v", err)
	}
}

func TestFollowersFolloweesSnapshots(t *testing.T) {
	t.Parallel()
	g := New()
	hub := g.CreateAccount(t0)
	ids := make(map[AccountID]bool)
	for i := 0; i < 5; i++ {
		f := g.CreateAccount(t0)
		g.Follow(f, hub)
		g.Follow(hub, f)
		ids[f] = true
	}
	fs := g.Followers(hub)
	if len(fs) != 5 {
		t.Fatalf("Followers len %d", len(fs))
	}
	for _, f := range fs {
		if !ids[f] {
			t.Fatalf("unexpected follower %d", f)
		}
	}
	if len(g.Followees(hub)) != 5 {
		t.Fatal("Followees len wrong")
	}
	if g.Followers(999) != nil || g.Followees(999) != nil {
		t.Fatal("snapshots for missing account not nil")
	}
}

// Property: follower/followee counts stay consistent (sum of in-degrees ==
// sum of out-degrees) under arbitrary follow/unfollow sequences.
func TestDegreeConservation(t *testing.T) {
	t.Parallel()
	check := func(ops []uint16) bool {
		g := New()
		const n = 8
		var ids [n]AccountID
		for i := range ids {
			ids[i] = g.CreateAccount(t0)
		}
		for _, op := range ops {
			from := ids[int(op)%n]
			to := ids[int(op>>4)%n]
			if op&1 == 0 {
				g.Follow(from, to)
			} else {
				g.Unfollow(from, to)
			}
		}
		in, out := 0, 0
		for _, id := range ids {
			in += g.InDegree(id)
			out += g.OutDegree(id)
		}
		return in == out
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowUnfollowSymmetryProperty drives a long random follow/unfollow
// sequence — symmetric pairs (a→b, then b→a) included — against a
// reference edge set and checks after every operation that the graph
// agrees with the model: the same edges exist, every edge is visible from
// both endpoints, and Σ in-degree == Σ out-degree == edge count.
func TestFollowUnfollowSymmetryProperty(t *testing.T) {
	t.Parallel()
	const accounts, ops = 24, 6000
	g := New()
	ids := make([]AccountID, accounts)
	for i := range ids {
		ids[i] = g.CreateAccount(t0)
	}
	type edge struct{ from, to AccountID }
	model := make(map[edge]bool)
	r := rng.New(7)
	for k := 0; k < ops; k++ {
		var from, to AccountID
		if k%4 < 2 {
			// Symmetric churn on a fixed pair, both directions.
			from, to = ids[k%3], ids[(k+1)%3]
			if k%4 == 1 {
				from, to = to, from
			}
		} else {
			from, to = ids[r.Intn(accounts)], ids[r.Intn(accounts)]
		}
		e := edge{from, to}
		if r.Bool(0.5) {
			added, err := g.Follow(from, to)
			if from == to {
				if !errors.Is(err, ErrSelfAction) {
					t.Fatalf("op %d: self-follow %d returned %v", k, from, err)
				}
				continue
			}
			if err != nil || added == model[e] {
				t.Fatalf("op %d: Follow(%d, %d) = %v, %v; model has edge: %v", k, from, to, added, err, model[e])
			}
			model[e] = true
		} else {
			removed, err := g.Unfollow(from, to)
			if err != nil || removed != model[e] {
				t.Fatalf("op %d: Unfollow(%d, %d) = %v, %v; model has edge: %v", k, from, to, removed, err, model[e])
			}
			delete(model, e)
		}
	}

	in, out := 0, 0
	for _, a := range ids {
		in += g.InDegree(a)
		out += g.OutDegree(a)
		for _, b := range ids {
			if got := g.Follows(a, b); got != model[edge{a, b}] {
				t.Fatalf("Follows(%d, %d) = %v, model says %v", a, b, got, model[edge{a, b}])
			}
		}
		for _, f := range g.Followees(a) {
			found := false
			for _, b := range g.Followers(f) {
				found = found || b == a
			}
			if !found {
				t.Fatalf("edge %d→%d missing from %d's follower set", a, f, f)
			}
		}
	}
	if in != out || in != len(model) {
		t.Fatalf("edge conservation broken: Σin=%d Σout=%d, model has %d edges", in, out, len(model))
	}
	if in == 0 {
		t.Fatal("no edges survived the churn; property check is vacuous")
	}
}

// TestRestoreStateRejectsBadIDs feeds RestoreState snapshots whose IDs
// break the invariants the ID-addressed tables rely on and expects an
// error — never a panic — with the graph left untouched.
func TestRestoreStateRejectsBadIDs(t *testing.T) {
	t.Parallel()
	g := New()
	a, b := g.CreateAccount(t0), g.CreateAccount(t0)
	pid, _ := g.AddPost(a, t0)
	g.Follow(a, b)
	g.Like(b, pid)
	for name, corrupt := range map[string]func(*State){
		"duplicate account":    func(st *State) { st.Accounts[1].ID = st.Accounts[0].ID },
		"descending accounts":  func(st *State) { st.Accounts[0], st.Accounts[1] = st.Accounts[1], st.Accounts[0] },
		"account past counter": func(st *State) { st.Accounts[1].ID = st.NextAcct + 1 },
		"zero account ID":      func(st *State) { st.Accounts[0].ID = 0 },
		"followee past counter": func(st *State) {
			st.Accounts[0].Followees = []AccountID{st.NextAcct + 1}
		},
		"post past counter":  func(st *State) { st.Posts[0].ID = st.NextPost + 1 },
		"liker past counter": func(st *State) { st.Posts[0].Likes = []AccountID{1 << 40} },
		"counter past uint32": func(st *State) {
			st.NextAcct = 1 << 33
		},
	} {
		st := g.SnapshotState()
		corrupt(st)
		if err := g.RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted the snapshot", name)
		}
	}
	if !g.Follows(a, b) || g.LikeCount(pid) != 1 || g.NumAccounts() != 2 {
		t.Error("a rejected restore modified the graph")
	}
	// The uncorrupted snapshot still round-trips.
	if err := g.RestoreState(g.SnapshotState()); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
}

func BenchmarkFollow(b *testing.B) {
	g := New()
	const n = 1000
	ids := make([]AccountID, n)
	for i := range ids {
		ids[i] = g.CreateAccount(t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Follow(ids[i%n], ids[(i+1)%n])
		g.Unfollow(ids[i%n], ids[(i+1)%n])
	}
}

func BenchmarkLike(b *testing.B) {
	g := New()
	author := g.CreateAccount(t0)
	pid, _ := g.AddPost(author, t0)
	const n = 1000
	ids := make([]AccountID, n)
	for i := range ids {
		ids[i] = g.CreateAccount(t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Like(ids[i%n], pid)
		g.Unlike(ids[i%n], pid)
	}
}
