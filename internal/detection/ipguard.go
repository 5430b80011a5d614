package detection

import (
	"net/netip"

	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

// IPVolumeGuard models the platform's pre-existing abuse defenses: a
// per-IP daily action budget that throttles "high volumes of abuse
// originating from a small number of IP addresses" (§5).
//
// This is the system that had already neutered Followersgratis before the
// study began — its four-address footprint cannot push meaningful volume
// through a per-IP cap — while the other services' wider address pools
// (and, post-evasion, their proxy networks) sail under it.
//
// The guard implements platform.Gatekeeper. Chain it in front of an
// intervention controller with Chain.
type IPVolumeGuard struct {
	// DailyPerIP caps allowed actions per source address per day.
	DailyPerIP int

	// slot maps an address's IPv4 value (see ipKey), hashed as one word
	// instead of a 24-byte netip.Addr, to its window in windows: a check
	// probes the map once and updates the window in place.
	slot    map[ipKey]int
	windows []ipWindow

	// Throttled counts actions rejected, by client fingerprint — the
	// platform's view of who the guard is squeezing.
	Throttled map[string]int

	telChecked *telemetry.Counter
	telBlocked *telemetry.Counter
}

type ipWindow struct {
	day int64
	n   int
}

// ipKey names an address's window: its 32-bit IPv4 value with bit 32
// set, so the zero Addr (key 0) stays distinct from 0.0.0.0. Every
// address the simulator mints is IPv4 (netsim.Registry.Allocate), and a
// snapshot stores any other address as absent, so a non-IPv4 source
// shares the zero Addr's window here just as it would after a restore.
// Keys order as their addresses do under netip.Addr.Compare.
type ipKey uint64

func keyOf(a netip.Addr) ipKey {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return ipKey(1<<32 | uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3]))
}

// addr inverts keyOf.
func (k ipKey) addr() netip.Addr {
	if k == 0 {
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)})
}

// NewIPVolumeGuard returns a guard with the given per-IP daily budget.
func NewIPVolumeGuard(dailyPerIP int) *IPVolumeGuard {
	return &IPVolumeGuard{
		DailyPerIP: dailyPerIP,
		slot:       make(map[ipKey]int),
		Throttled:  make(map[string]int),
	}
}

// WireTelemetry registers the guard's checked/blocked counters on reg.
// Telemetry is a pure observer; a nil reg leaves the guard untouched.
func (g *IPVolumeGuard) WireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	g.telChecked = reg.Counter("detection.ipguard.checked")
	g.telBlocked = reg.Counter("detection.ipguard.blocked")
}

// Check implements platform.Gatekeeper: actions beyond an address's daily
// budget are blocked synchronously. Logins always pass — the guard polices
// action volume, not presence.
func (g *IPVolumeGuard) Check(req platform.Event) platform.Verdict {
	if req.Type == platform.ActionLogin || g.DailyPerIP <= 0 {
		return platform.Allow
	}
	g.telChecked.Inc()
	day := req.Time.Unix() / 86400
	k := keyOf(req.IP)
	i, ok := g.slot[k]
	if !ok {
		// A fresh window starts at zero and DailyPerIP > 0 here, so the
		// address's first request is allowed.
		g.slot[k] = len(g.windows)
		g.windows = append(g.windows, ipWindow{day: day, n: 1})
		return platform.Allow
	}
	w := &g.windows[i]
	if w.day != day {
		*w = ipWindow{day: day}
	}
	if w.n >= g.DailyPerIP {
		g.Throttled[req.Client]++
		g.telBlocked.Inc()
		return platform.Verdict{Kind: platform.VerdictBlock}
	}
	w.n++
	return platform.Allow
}

// TotalThrottled sums rejections across fingerprints.
func (g *IPVolumeGuard) TotalThrottled() int {
	n := 0
	for _, v := range g.Throttled {
		n += v
	}
	return n
}

// Chain composes gatekeepers: the first non-allow verdict wins. Use it to
// stack the pre-existing IP guard under an experiment's controller.
func Chain(gks ...platform.Gatekeeper) platform.Gatekeeper {
	return platform.GatekeeperFunc(func(req platform.Event) platform.Verdict {
		for _, gk := range gks {
			if gk == nil {
				continue
			}
			if v := gk.Check(req); v.Kind != platform.VerdictAllow {
				return v
			}
		}
		return platform.Allow
	})
}
