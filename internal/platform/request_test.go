package platform

import "testing"

// TestDoEnvelopeMatchesWrappers pins the wrapper contract: a Request
// submitted through Do and the equivalent deprecated method produce the
// same outcome and the same emitted event shape.
func TestDoEnvelopeMatchesWrappers(t *testing.T) {
	t.Parallel()
	run := func(useDo bool) []Event {
		cfg := DefaultConfig()
		w := newWorld(t, cfg)
		var got []Event
		w.p.Log().Subscribe(func(ev Event) { got = append(got, ev) })
		alice := w.register(t, "alice")
		w.register(t, "bob")
		sa := w.login(t, "alice", 10)
		sb := w.login(t, "bob", 10)
		pid, ok := w.p.LatestPost(alice)
		if !ok {
			t.Fatal("alice has no seed post")
		}
		if useDo {
			sb.Do(Request{Action: ActionFollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: pid})
			sb.Do(Request{Action: ActionComment, Post: pid, Text: "hi"})
			sa.Do(Request{Action: ActionPost})
			sb.Do(Request{Action: ActionUnfollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: 9999}) // structural fail
		} else {
			sb.Do(Request{Action: ActionFollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: pid})
			sb.Do(Request{Action: ActionComment, Post: pid, Text: "hi"})
			sa.Do(Request{Action: ActionPost})
			sb.Do(Request{Action: ActionUnfollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: 9999})
		}
		return got
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("event count differs: Do %d, wrappers %d", len(a), len(b))
	}
	for i := range a {
		// Seq is assigned by the log and IPs by allocation order; both
		// runs use fresh worlds so all fields must agree exactly.
		if a[i] != b[i] {
			t.Errorf("event %d differs:\n  Do:      %+v\n  wrapper: %+v", i, a[i], b[i])
		}
	}
}

// TestDoRejectsBadRequests covers the envelope's error edges: no
// session, and an action kind that is not requestable.
func TestDoRejectsBadRequests(t *testing.T) {
	t.Parallel()
	w := newWorld(t, DefaultConfig())
	if resp := w.p.Do(Request{Action: ActionFollow, Target: 1}); resp.Err != ErrNoSession {
		t.Errorf("sessionless request: err %v, want ErrNoSession", resp.Err)
	}
	w.register(t, "alice")
	s := w.login(t, "alice", 10)
	if resp := s.Do(Request{Action: ActionLogin}); resp.Err == nil {
		t.Error("ActionLogin through Do succeeded; logins must go through Login")
	}
}
