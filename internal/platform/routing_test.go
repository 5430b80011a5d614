package platform

import (
	"net/netip"
	"testing"
	"time"

	"footsteps/internal/netsim"
)

// asnRecorder is a fault injector that never faults and records the ASN
// each request was decided with.
type asnRecorder struct{ asns []netsim.ASN }

func (f *asnRecorder) Decide(_ time.Time, _ AccountID, _ ActionType, asn netsim.ASN, _ uint64) FaultDecision {
	f.asns = append(f.asns, asn)
	return FaultDecision{}
}

// TestEventASNFollowsRouting pins the ASN a request carries to the
// routes at request time: sessions keep their resolved ASN between
// requests, and a route announced after login must still show up on
// the session's next request, in the fault verdict, at the gatekeeper
// and on the emitted event alike.
func TestEventASNFollowsRouting(t *testing.T) {
	w := newWorld(t, DefaultConfig())
	w.register(t, "alice")
	bob := w.register(t, "bob")
	pid, _ := w.p.LatestPost(bob)
	faults := &asnRecorder{}
	w.p.SetFaultInjector(faults)
	var gated []netsim.ASN
	w.p.SetGatekeeper(GatekeeperFunc(func(req Event) Verdict {
		gated = append(gated, req.ASN)
		return Allow
	}))
	col := (&Collector{}).Attach(w.p.Log())

	// want checks that the requests since the last call carried asn at
	// every place the pipeline hands it out.
	want := func(what string, asn netsim.ASN, gatekept int) {
		t.Helper()
		if len(col.Events) == 0 || len(faults.asns) == 0 {
			t.Fatalf("%s: no event or fault decision recorded", what)
		}
		for _, ev := range col.Events {
			if ev.ASN != asn {
				t.Fatalf("%s: %v event carries ASN %d, want %d", what, ev.Type, ev.ASN, asn)
			}
		}
		for _, a := range faults.asns {
			if a != asn {
				t.Fatalf("%s: fault injector decided with ASN %d, want %d", what, a, asn)
			}
		}
		if len(gated) != gatekept {
			t.Fatalf("%s: gatekeeper consulted %d times, want %d", what, len(gated), gatekept)
		}
		for _, a := range gated {
			if a != asn {
				t.Fatalf("%s: gatekeeper saw ASN %d, want %d", what, a, asn)
			}
		}
		col.Events, faults.asns, gated = nil, nil, nil
	}

	sa := w.login(t, "alice", 10)
	want("login", 10, 0)
	if r := sa.Do(Request{Action: ActionFollow, Target: bob}); r.Err != nil {
		t.Fatal(r.Err)
	}
	want("first request", 10, 1)

	// Lease the session's /24 to ASN 20: the next request comes from it.
	if err := w.reg.AnnouncePrefix(netip.PrefixFrom(sa.Client().IP, 24).Masked(), 20); err != nil {
		t.Fatal(err)
	}
	if r := sa.Do(Request{Action: ActionLike, Post: pid}); r.Err != nil {
		t.Fatal(r.Err)
	}
	want("request after AnnouncePrefix", 20, 1)
	// A structural failure emits without consulting faults or the
	// gatekeeper; its event carries the new ASN too.
	sa.Do(Request{Action: ActionLike, Post: pid + 1000})
	if len(col.Events) != 1 || col.Events[0].Outcome != OutcomeFailed || col.Events[0].ASN != 20 {
		t.Fatalf("failed request events = %+v, want one failure from ASN 20", col.Events)
	}
	col.Events = nil

	// A restored session has never resolved its address: its first
	// request must resolve it under the current routes.
	rs := w.p.RestoreSession(CaptureSession(sa))
	if r := rs.Do(Request{Action: ActionUnfollow, Target: bob}); r.Err != nil {
		t.Fatal(r.Err)
	}
	want("restored session", 20, 1)
	// A login from the next address of ASN 10's block lands inside the
	// leased /24, so it too comes from the lessee.
	w.login(t, "bob", 10)
	want("login inside the lease", 20, 0)
}
