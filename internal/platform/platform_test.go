package platform

import (
	"errors"
	"testing"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/socialgraph"
)

// testWorld bundles a platform with its substrates for tests.
type testWorld struct {
	p     *Platform
	sched *clock.Scheduler
	reg   *netsim.Registry
}

func newWorld(t *testing.T, cfg Config) *testWorld {
	t.Helper()
	reg := netsim.NewRegistry()
	reg.Register(10, "home-isp", "USA", netsim.KindResidential)
	reg.Register(20, "aas-dc", "RUS", netsim.KindHosting)
	sched := clock.NewScheduler(clock.New())
	p := New(cfg, socialgraph.New(), reg, sched)
	return &testWorld{p: p, sched: sched, reg: reg}
}

func (w *testWorld) register(t *testing.T, name string) AccountID {
	t.Helper()
	id, err := w.p.RegisterAccount(name, "pw-"+name, Profile{PhotoCount: 10}, "USA")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func (w *testWorld) login(t *testing.T, name string, asn netsim.ASN) *Session {
	t.Helper()
	s, err := w.p.Login(name, "pw-"+name, ClientInfo{
		IP: w.reg.Allocate(asn), Fingerprint: "test-client", API: APIPrivate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegisterAndLogin(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	id := w.register(t, "alice")
	if !w.p.Exists(id) {
		t.Fatal("account missing after registration")
	}
	s := w.login(t, "alice", 10)
	if s.Account() != id {
		t.Fatalf("session account %d, want %d", s.Account(), id)
	}
	// Initial photos become posts.
	if got := len(w.p.Posts(id)); got != 10 {
		t.Fatalf("initial posts = %d, want 10", got)
	}
}

func TestDuplicateUsername(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	if _, err := w.p.RegisterAccount("alice", "x", Profile{}, "USA"); !errors.Is(err, ErrUsernameTaken) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadCredentials(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	if _, err := w.p.Login("alice", "wrong", ClientInfo{}); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.p.Login("nobody", "x", ClientInfo{}); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("err = %v", err)
	}
}

func TestActionsMutateGraph(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	a := w.register(t, "alice")
	b := w.register(t, "bob")
	sa := w.login(t, "alice", 10)

	if err := sa.Do(Request{Action: ActionFollow, Target: b}).Err; err != nil {
		t.Fatal(err)
	}
	if !w.p.Graph().Follows(a, b) {
		t.Fatal("follow not applied to graph")
	}
	pid, ok := w.p.LatestPost(b)
	if !ok {
		t.Fatal("bob has no posts")
	}
	if err := sa.Do(Request{Action: ActionLike, Post: pid}).Err; err != nil {
		t.Fatal(err)
	}
	if w.p.LikeCount(pid) != 1 {
		t.Fatal("like not applied")
	}
	if err := sa.Do(Request{Action: ActionComment, Post: pid, Text: "nice"}).Err; err != nil {
		t.Fatal(err)
	}
	if got := w.p.Graph().Comments(pid); len(got) != 1 {
		t.Fatalf("comments = %d", len(got))
	}
	if err := sa.Do(Request{Action: ActionUnfollow, Target: b}).Err; err != nil {
		t.Fatal(err)
	}
	if w.p.Graph().Follows(a, b) {
		t.Fatal("unfollow not applied")
	}
	postResp := sa.Do(Request{Action: ActionPost})
	newPid, err := postResp.Post, postResp.Err
	if err != nil {
		t.Fatal(err)
	}
	if author, _ := w.p.PostAuthor(newPid); author != a {
		t.Fatal("post author wrong")
	}
}

func TestStatelessMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GraphWrites = false
	w := newWorld(t, cfg)
	a := w.register(t, "alice")
	b := w.register(t, "bob")
	sa := w.login(t, "alice", 10)

	if err := sa.Do(Request{Action: ActionFollow, Target: b}).Err; err != nil {
		t.Fatal(err)
	}
	// The graph is untouched...
	if w.p.Graph().Follows(a, b) {
		t.Fatal("stateless mode wrote to graph")
	}
	// ...but events flow and like counts still accumulate.
	pid, _ := w.p.LatestPost(b)
	if err := sa.Do(Request{Action: ActionLike, Post: pid}).Err; err != nil {
		t.Fatal(err)
	}
	if w.p.LikeCount(pid) != 1 {
		t.Fatal("stateless like count missing")
	}
	if err := sa.Do(Request{Action: ActionPost}).Err; err != nil {
		t.Fatal(err)
	}
	if got := len(w.p.Posts(a)); got != 11 {
		t.Fatalf("posts = %d, want 11", got)
	}
}

func TestEventStream(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	col := (&Collector{}).Attach(w.p.Log())
	w.register(t, "alice")
	b := w.register(t, "bob")
	sa := w.login(t, "alice", 20)
	sa.Do(Request{Action: ActionFollow, Target: b})

	if len(col.Events) != 2 {
		t.Fatalf("events = %d, want 2 (login+follow)", len(col.Events))
	}
	login, follow := col.Events[0], col.Events[1]
	if login.Type != ActionLogin || follow.Type != ActionFollow {
		t.Fatalf("event types %v %v", login.Type, follow.Type)
	}
	if follow.ASN != 20 {
		t.Fatalf("event ASN = %d, want 20", follow.ASN)
	}
	if follow.Target != b || follow.Outcome != OutcomeAllowed {
		t.Fatalf("follow event %+v", follow)
	}
	if follow.Seq <= login.Seq {
		t.Fatal("sequence numbers not increasing")
	}
}

func TestPasswordResetRevokesSession(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	b := w.register(t, "bob")
	sa := w.login(t, "alice", 10)
	if err := w.p.ResetPassword(sa.Account(), "newpw"); err != nil {
		t.Fatal(err)
	}
	if err := sa.Do(Request{Action: ActionFollow, Target: b}).Err; !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("err = %v, want ErrSessionRevoked", err)
	}
	// New login with new password works.
	if _, err := w.p.Login("alice", "newpw", ClientInfo{IP: w.reg.Allocate(10)}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAccount(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	a := w.register(t, "alice")
	sa := w.login(t, "alice", 10)
	if err := w.p.DeleteAccount(a); err != nil {
		t.Fatal(err)
	}
	if w.p.Exists(a) {
		t.Fatal("account exists after deletion")
	}
	if err := sa.Do(Request{Action: ActionPost}).Err; !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("err = %v", err)
	}
	if err := w.p.DeleteAccount(a); !errors.Is(err, ErrAccountGone) {
		t.Fatalf("double delete err = %v", err)
	}
	// Username is freed.
	if _, err := w.p.RegisterAccount("alice", "x", Profile{}, "USA"); err != nil {
		t.Fatalf("username not freed: %v", err)
	}
}

func TestGatekeeperBlock(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	b := w.register(t, "bob")
	var seen []Event
	w.p.SetGatekeeper(GatekeeperFunc(func(req Event) Verdict {
		seen = append(seen, req)
		if req.Type == ActionFollow {
			return Verdict{Kind: VerdictBlock}
		}
		return Allow
	}))
	col := (&Collector{Filter: func(e Event) bool { return e.Outcome == OutcomeBlocked }}).Attach(w.p.Log())
	sa := w.login(t, "alice", 20)

	if err := sa.Do(Request{Action: ActionFollow, Target: b}).Err; !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if w.p.Graph().Follows(sa.Account(), b) {
		t.Fatal("blocked follow applied to graph")
	}
	if len(col.Events) != 1 {
		t.Fatalf("blocked events = %d", len(col.Events))
	}
	// Gatekeeper saw the resolved ASN.
	if len(seen) == 0 || seen[len(seen)-1].ASN != 20 {
		t.Fatal("gatekeeper did not see resolved ASN")
	}
	// Likes pass.
	pid, _ := w.p.LatestPost(b)
	if err := sa.Do(Request{Action: ActionLike, Post: pid}).Err; err != nil {
		t.Fatal(err)
	}
}

func TestGatekeeperDelayRemove(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	a := w.register(t, "alice")
	b := w.register(t, "bob")
	w.p.SetGatekeeper(GatekeeperFunc(func(req Event) Verdict {
		if req.Type == ActionFollow {
			return Verdict{Kind: VerdictDelayRemove, RemoveAfter: 24 * time.Hour}
		}
		return Allow
	}))
	var removals []Event
	w.p.Log().Subscribe(func(ev Event) {
		if ev.Enforcement {
			removals = append(removals, ev)
		}
	})
	sa := w.login(t, "alice", 20)

	// The action succeeds from the service's perspective.
	if err := sa.Do(Request{Action: ActionFollow, Target: b}).Err; err != nil {
		t.Fatal(err)
	}
	if !w.p.Graph().Follows(a, b) {
		t.Fatal("delayed follow not applied")
	}
	// 12 hours later it is still there...
	w.sched.RunFor(12 * time.Hour)
	if !w.p.Graph().Follows(a, b) {
		t.Fatal("follow removed too early")
	}
	// ...but a day after the action it is gone, with an enforcement event.
	w.sched.RunFor(13 * time.Hour)
	if w.p.Graph().Follows(a, b) {
		t.Fatal("follow not removed after delay")
	}
	if len(removals) != 1 || removals[0].Type != ActionUnfollow || !removals[0].Enforcement {
		t.Fatalf("removals = %+v", removals)
	}
}

func TestDelayRemoveOnLikeDegradesToAllow(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	b := w.register(t, "bob")
	w.p.SetGatekeeper(GatekeeperFunc(func(req Event) Verdict {
		return Verdict{Kind: VerdictDelayRemove, RemoveAfter: time.Hour}
	}))
	sa := w.login(t, "alice", 20)
	pid, _ := w.p.LatestPost(b)
	if err := sa.Do(Request{Action: ActionLike, Post: pid}).Err; err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(3 * time.Hour)
	if w.p.LikeCount(pid) != 1 {
		t.Fatal("like removed; delay-remove must not apply to likes")
	}
}

func TestDelayedRemovalSkipsManualUnfollow(t *testing.T) {
	// If the user (or AAS) already unfollowed, the scheduled removal must
	// not emit a spurious enforcement event.
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	b := w.register(t, "bob")
	w.p.SetGatekeeper(GatekeeperFunc(func(req Event) Verdict {
		if req.Type == ActionFollow {
			return Verdict{Kind: VerdictDelayRemove, RemoveAfter: 24 * time.Hour}
		}
		return Allow
	}))
	removals := 0
	w.p.Log().Subscribe(func(ev Event) {
		if ev.Enforcement {
			removals++
		}
	})
	sa := w.login(t, "alice", 20)
	sa.Do(Request{Action: ActionFollow, Target: b})
	sa.Do(Request{Action: ActionUnfollow, Target: b})
	w.sched.RunFor(48 * time.Hour)
	if removals != 0 {
		t.Fatalf("enforcement removal fired %d times after manual unfollow", removals)
	}
}

func TestRateLimits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrivateHourlyLimit = 5
	w := newWorld(t, cfg)
	w.register(t, "alice")
	b := w.register(t, "bob")
	sa := w.login(t, "alice", 10)
	pid, _ := w.p.LatestPost(b)

	for i := 0; i < 5; i++ {
		if err := sa.Do(Request{Action: ActionLike, Post: pid}).Err; err != nil && !errors.Is(err, nil) {
			// duplicate likes are fine at the graph level; only rate
			// limiting matters here
			t.Fatal(err)
		}
	}
	if err := sa.Do(Request{Action: ActionComment, Post: pid, Text: "x"}).Err; !errors.Is(err, ErrRateLimited) {
		t.Fatalf("6th action err = %v, want ErrRateLimited", err)
	}
	// The next hour opens a fresh budget.
	w.sched.Clock().Advance(time.Hour)
	if err := sa.Do(Request{Action: ActionComment, Post: pid, Text: "x"}).Err; err != nil {
		t.Fatalf("after window reset: %v", err)
	}
}

func TestOAuthLimitTighter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OAuthHourlyLimit = 2
	cfg.PrivateHourlyLimit = 100
	w := newWorld(t, cfg)
	w.register(t, "alice")
	b := w.register(t, "bob")
	s, err := w.p.Login("alice", "pw-alice", ClientInfo{IP: w.reg.Allocate(10), API: APIOAuth})
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := w.p.LatestPost(b)
	s.Do(Request{Action: ActionLike, Post: pid})
	s.Do(Request{Action: ActionComment, Post: pid, Text: "a"})
	if err := s.Do(Request{Action: ActionComment, Post: pid, Text: "b"}).Err; !errors.Is(err, ErrRateLimited) {
		t.Fatalf("oauth 3rd action err = %v", err)
	}
}

func TestMostFrequentLoginCountry(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	// Two logins from USA (ASN 10), one from RUS (ASN 20).
	for _, asn := range []netsim.ASN{10, 10, 20} {
		w.login(t, "alice", asn)
	}
	id, _ := w.p.byUsername["alice"], struct{}{}
	c, ok := w.p.MostFrequentLoginCountry(id)
	if !ok || c != "USA" {
		t.Fatalf("country = %q, %v", c, ok)
	}
}

func TestMostFrequentLoginCountryNoLogins(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	id := w.register(t, "alice")
	if _, ok := w.p.MostFrequentLoginCountry(id); ok {
		t.Fatal("country reported for account with no logins")
	}
}

func TestActionsOnMissingTargets(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	sa := w.login(t, "alice", 10)
	if err := sa.Do(Request{Action: ActionFollow, Target: AccountID(9999)}).Err; err == nil {
		t.Fatal("follow of missing account succeeded")
	}
	if err := sa.Do(Request{Action: ActionLike, Post: PostID(9999)}).Err; err == nil {
		t.Fatal("like of missing post succeeded")
	}
	if err := sa.Do(Request{Action: ActionComment, Post: PostID(9999), Text: "x"}).Err; err == nil {
		t.Fatal("comment on missing post succeeded")
	}
}

func TestProfileLivedIn(t *testing.T) {
	full := Profile{PhotoCount: 12, HasProfilePic: true, HasBio: true, HasName: true}
	if !full.LivedIn() {
		t.Fatal("full profile not lived-in")
	}
	for _, p := range []Profile{
		{PhotoCount: 5, HasProfilePic: true, HasBio: true, HasName: true},
		{PhotoCount: 12, HasBio: true, HasName: true},
		{PhotoCount: 12, HasProfilePic: true, HasName: true},
		{PhotoCount: 12, HasProfilePic: true, HasBio: true},
	} {
		if p.LivedIn() {
			t.Fatalf("profile %+v should not be lived-in", p)
		}
	}
}

func TestActionTypeAndOutcomeStrings(t *testing.T) {
	cases := map[string]string{
		ActionLike.String():         "like",
		ActionFollow.String():       "follow",
		ActionUnfollow.String():     "unfollow",
		ActionComment.String():      "comment",
		ActionPost.String():         "post",
		ActionLogin.String():        "login",
		OutcomeAllowed.String():     "allowed",
		OutcomeBlocked.String():     "blocked",
		OutcomeRateLimited.String(): "rate-limited",
		OutcomeFailed.String():      "failed",
		APIOAuth.String():           "oauth",
		APIPrivate.String():         "private",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("string %q != %q", got, want)
		}
	}
	if ActionType(99).String() != "unknown" || Outcome(99).String() != "unknown" {
		t.Fatal("unknown enum strings")
	}
}

func TestDuplicateActionsFlagged(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	b := w.register(t, "bob")
	col := (&Collector{Filter: func(e Event) bool { return e.Type == ActionLike }}).Attach(w.p.Log())
	sa := w.login(t, "alice", 10)
	pid, _ := w.p.LatestPost(b)
	sa.Do(Request{Action: ActionLike, Post: pid})
	sa.Do(Request{Action: ActionLike, Post: pid})
	if len(col.Events) != 2 {
		t.Fatalf("like events = %d", len(col.Events))
	}
	if col.Events[0].Duplicate {
		t.Fatal("first like marked duplicate")
	}
	if !col.Events[1].Duplicate {
		t.Fatal("second like not marked duplicate")
	}
	if w.p.LikeCount(pid) != 1 {
		t.Fatalf("like count %d", w.p.LikeCount(pid))
	}
}

func TestHashtagIndex(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	a := w.register(t, "alice")
	sa := w.login(t, "alice", 10)

	tagResp := sa.Do(Request{Action: ActionPost, Tags: []string{"dogs", "cute"}})
	pid1, err := tagResp.Post, tagResp.Err
	if err != nil {
		t.Fatal(err)
	}
	pid2 := sa.Do(Request{Action: ActionPost, Tags: []string{"dogs"}}).Post
	pid3 := sa.Do(Request{Action: ActionPost, Tags: []string{"cats"}}).Post

	dogs := w.p.RecentByTag("dogs", 10)
	if len(dogs) != 2 || dogs[0] != pid2 || dogs[1] != pid1 {
		t.Fatalf("dogs = %v, want newest first [%d %d]", dogs, pid2, pid1)
	}
	if got := w.p.RecentByTag("cats", 10); len(got) != 1 || got[0] != pid3 {
		t.Fatalf("cats = %v", got)
	}
	if got := w.p.RecentByTag("cute", 1); len(got) != 1 || got[0] != pid1 {
		t.Fatalf("cute = %v", got)
	}
	if w.p.RecentByTag("nothing", 5) != nil {
		t.Fatal("unknown tag returned posts")
	}
	if w.p.RecentByTag("dogs", 0) != nil {
		t.Fatal("k=0 returned posts")
	}

	// TagPost on a seed photo.
	seed := w.p.Posts(a)[0]
	if err := w.p.TagPost(a, seed, "retro"); err != nil {
		t.Fatal(err)
	}
	if got := w.p.RecentByTag("retro", 5); len(got) != 1 || got[0] != seed {
		t.Fatalf("retro = %v", got)
	}
	// TagPost by a non-author fails.
	b := w.register(t, "bob")
	if err := w.p.TagPost(b, seed, "hijack"); err == nil {
		t.Fatal("non-author tagged a post")
	}
}

func TestHashtagRingBounded(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	sa := w.login(t, "alice", 10)
	cfg := DefaultConfig()
	cfg.PrivateHourlyLimit = 0 // unbounded for this volume test
	w2 := newWorld(t, cfg)
	w2.register(t, "alice")
	sa = w2.login(t, "alice", 10)
	var last PostID
	for i := 0; i < 300; i++ {
		last = sa.Do(Request{Action: ActionPost, Tags: []string{"flood"}}).Post
	}
	got := w2.p.RecentByTag("flood", 1000)
	if len(got) != 256 {
		t.Fatalf("ring kept %d posts, want 256", len(got))
	}
	if got[0] != last {
		t.Fatal("newest post not first")
	}
	_ = w
}

// TestRestoreStateRejectsBadIDs feeds RestoreState snapshots whose IDs
// break the invariants the ID-addressed tables rely on and expects an
// error — never a panic — with the platform left untouched.
func TestRestoreStateRejectsBadIDs(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.GraphWrites = false
	w := newWorld(t, cfg)
	a := w.register(t, "a")
	w.register(t, "b")
	s := w.login(t, "a", 10)
	s.Do(Request{Action: ActionPost})
	for name, corrupt := range map[string]func(*State){
		"duplicate account":   func(st *State) { st.Accounts[1].ID = st.Accounts[0].ID },
		"descending accounts": func(st *State) { st.Accounts[0], st.Accounts[1] = st.Accounts[1], st.Accounts[0] },
		"account gap":         func(st *State) { st.Accounts[1].ID = 3 },
		"duplicate post":      func(st *State) { st.Accounts[1].Posts[0] = st.Accounts[0].Posts[0] },
		"post past count":     func(st *State) { st.Accounts[0].Posts[0] = 1 << 40 },
		"counter past posts":  func(st *State) { st.NextPost = 1 << 40 },
		"limiter past accounts": func(st *State) {
			st.Limiters = append(st.Limiters, LimiterState{ID: 3, Hour: 1, Count: 1})
		},
	} {
		st := w.p.SnapshotState()
		corrupt(st)
		if err := w.p.RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted the snapshot", name)
		}
	}
	if !w.p.Exists(a) || w.p.NumAccounts() != 2 || len(w.p.Posts(a)) != 11 {
		t.Error("a rejected restore modified the platform")
	}
	if err := w.p.RestoreState(w.p.SnapshotState()); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
}
