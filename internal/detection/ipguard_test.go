package detection

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"testing"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/snaprow"
)

func guardReq(ip string, client string, at time.Time) platform.Event {
	return platform.Event{
		Time: at, Type: platform.ActionLike, Actor: 1,
		IP: netip.MustParseAddr(ip), Client: client,
	}
}

func TestIPVolumeGuardCapsPerIP(t *testing.T) {
	t.Parallel()
	g := NewIPVolumeGuard(3)
	at := clock.Epoch
	for i := 0; i < 3; i++ {
		if v := g.Check(guardReq("10.0.0.1", "spoof", at)); v.Kind != platform.VerdictAllow {
			t.Fatalf("action %d blocked below cap", i)
		}
	}
	if v := g.Check(guardReq("10.0.0.1", "spoof", at)); v.Kind != platform.VerdictBlock {
		t.Fatal("4th action from same IP not blocked")
	}
	// A different IP has its own budget.
	if v := g.Check(guardReq("10.0.0.2", "spoof", at)); v.Kind != platform.VerdictAllow {
		t.Fatal("fresh IP blocked")
	}
	if g.Throttled["spoof"] != 1 || g.TotalThrottled() != 1 {
		t.Fatalf("throttle accounting %v", g.Throttled)
	}
}

func TestIPVolumeGuardDailyReset(t *testing.T) {
	t.Parallel()
	g := NewIPVolumeGuard(1)
	at := clock.Epoch
	g.Check(guardReq("10.0.0.1", "x", at))
	if v := g.Check(guardReq("10.0.0.1", "x", at)); v.Kind != platform.VerdictBlock {
		t.Fatal("over-budget action allowed")
	}
	if v := g.Check(guardReq("10.0.0.1", "x", at.Add(24*time.Hour))); v.Kind != platform.VerdictAllow {
		t.Fatal("budget did not reset next day")
	}
}

func TestIPVolumeGuardPassesLogins(t *testing.T) {
	t.Parallel()
	g := NewIPVolumeGuard(1)
	at := clock.Epoch
	for i := 0; i < 5; i++ {
		ev := guardReq("10.0.0.1", "x", at)
		ev.Type = platform.ActionLogin
		if v := g.Check(ev); v.Kind != platform.VerdictAllow {
			t.Fatal("login blocked by volume guard")
		}
	}
}

func TestIPVolumeGuardDisabled(t *testing.T) {
	t.Parallel()
	g := NewIPVolumeGuard(0)
	at := clock.Epoch
	for i := 0; i < 100; i++ {
		if v := g.Check(guardReq("10.0.0.1", "x", at)); v.Kind != platform.VerdictAllow {
			t.Fatal("disabled guard blocked")
		}
	}
}

func TestChainFirstVerdictWins(t *testing.T) {
	t.Parallel()
	blockLikes := platform.GatekeeperFunc(func(req platform.Event) platform.Verdict {
		if req.Type == platform.ActionLike {
			return platform.Verdict{Kind: platform.VerdictBlock}
		}
		return platform.Allow
	})
	delayFollows := platform.GatekeeperFunc(func(req platform.Event) platform.Verdict {
		if req.Type == platform.ActionFollow {
			return platform.Verdict{Kind: platform.VerdictDelayRemove}
		}
		return platform.Allow
	})
	chained := Chain(nil, blockLikes, delayFollows)

	like := platform.Event{Type: platform.ActionLike}
	if v := chained.Check(like); v.Kind != platform.VerdictBlock {
		t.Fatal("chain missed block")
	}
	follow := platform.Event{Type: platform.ActionFollow}
	if v := chained.Check(follow); v.Kind != platform.VerdictDelayRemove {
		t.Fatal("chain missed delay")
	}
	comment := platform.Event{Type: platform.ActionComment}
	if v := chained.Check(comment); v.Kind != platform.VerdictAllow {
		t.Fatal("chain blocked allowed action")
	}
}

// refGuard is the guard as it stood keyed by netip.Addr: the naive
// reference TestIPVolumeGuardMatchesAddrMapReference holds the
// integer-keyed guard to.
type refGuard struct {
	daily     int
	counts    map[netip.Addr]refWindow
	throttled map[string]int
}

type refWindow struct {
	day int64
	n   int
}

func (r *refGuard) check(req platform.Event) platform.VerdictKind {
	if req.Type == platform.ActionLogin || r.daily <= 0 {
		return platform.VerdictAllow
	}
	day := req.Time.Unix() / 86400
	w, ok := r.counts[req.IP]
	if !ok || w.day != day {
		w = refWindow{day: day}
	}
	if w.n >= r.daily {
		r.throttled[req.Client]++
		return platform.VerdictBlock
	}
	w.n++
	r.counts[req.IP] = w
	return platform.VerdictAllow
}

func (r *refGuard) windows() []IPWindowState {
	out := make([]IPWindowState, 0, len(r.counts))
	for ip, w := range r.counts {
		out = append(out, IPWindowState{IP: ip, Day: w.day, N: w.n})
	}
	slices.SortFunc(out, func(a, b IPWindowState) int { return a.IP.Compare(b.IP) })
	return out
}

// rowsOf flattens a row sequence into a slice.
func rowsOf[T any](r snaprow.Rows[T]) []T {
	if r.Each == nil {
		return slices.Clone(r.Slice)
	}
	out := make([]T, 0, r.N)
	r.Each(func(x *T) { out = append(out, *x) })
	if len(out) != r.N {
		panic(fmt.Sprintf("rows announced %d, yielded %d", r.N, len(out)))
	}
	return out
}

// roundTripGuard writes g's rows into a StagedGuard and commits it into
// a fresh guard: the path a snapshot restore takes, without the codec.
func roundTripGuard(t *testing.T, g *IPVolumeGuard) *IPVolumeGuard {
	t.Helper()
	s := NewStagedGuard()
	ws, cs := rowsOf(g.WindowRows()), rowsOf(g.ThrottledRows())
	loadW, loadC := s.LoadWindows(len(ws)), s.LoadThrottled(len(cs))
	for i := range ws {
		loadW(&ws[i])
	}
	for i := range cs {
		loadC(&cs[i])
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	out := NewIPVolumeGuard(g.DailyPerIP)
	out.CommitGuard(s)
	return out
}

func TestIPVolumeGuardMatchesAddrMapReference(t *testing.T) {
	t.Parallel()
	const daily = 3
	r := rng.New(23)
	// Thousands of addresses: scattered over the whole IPv4 space, a
	// dense run inside one block, the edges of the space, and the zero
	// Addr (a source with no address, such as an enforcement event).
	addrs := []netip.Addr{{}, netip.IPv4Unspecified(), netip.AddrFrom4([4]byte{255, 255, 255, 255})}
	for i := 0; i < 3000; i++ {
		v := uint32(r.Uint64())
		if i%2 == 0 {
			v = 23<<20 | uint32(i)
		}
		addrs = append(addrs, netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}))
	}
	clients := []string{"mobile-official", "spoof-a", "spoof-b", ""}
	g := NewIPVolumeGuard(daily)
	ref := &refGuard{daily: daily, counts: map[netip.Addr]refWindow{}, throttled: map[string]int{}}

	compare := func(at int) {
		t.Helper()
		if got, want := rowsOf(g.WindowRows()), ref.windows(); !slices.Equal(got, want) {
			t.Fatalf("after %d requests: WindowRows differ from the reference (%d vs %d rows)", at, len(got), len(want))
		}
		if !maps.Equal(g.Throttled, ref.throttled) {
			t.Fatalf("after %d requests: Throttled %v, reference %v", at, g.Throttled, ref.throttled)
		}
	}
	at := clock.Epoch
	blocked := 0
	const requests = 60000
	for i := 0; i < requests; i++ {
		at = at.Add(time.Duration(r.Intn(int(12 * time.Second))))
		// Half the traffic comes from a small hot set, so windows fill.
		ip := addrs[r.Intn(len(addrs))]
		if r.Bool(0.5) {
			ip = addrs[r.Intn(40)]
		}
		typ := platform.ActionLike
		if r.Bool(0.1) {
			typ = platform.ActionLogin
		}
		req := platform.Event{Time: at, Type: typ, Actor: 1, IP: ip, Client: clients[r.Intn(len(clients))]}
		got, want := g.Check(req).Kind, ref.check(req)
		if got != want {
			t.Fatalf("request %d (%v from %v): verdict %v, reference %v", i, typ, ip, got, want)
		}
		if got == platform.VerdictBlock {
			blocked++
		}
		if i%20000 == 19999 {
			compare(i + 1)
			g = roundTripGuard(t, g)
			compare(i + 1)
		}
	}
	compare(requests)
	if days := at.Sub(clock.Epoch) / clock.Day; days < 3 || blocked == 0 {
		t.Fatalf("stream spans %d days with %d blocks; the comparison is vacuous", days, blocked)
	}
}
