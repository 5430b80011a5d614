package detection

import (
	"fmt"
	"net/netip"
	"slices"

	"footsteps/internal/snaprow"
)

// Snapshot/restore support (see internal/persistence). The guard's
// per-IP sliding windows and throttle tallies are serialized sorted so
// the encoded form is canonical. Restore decodes them into a
// StagedGuard and CommitGuard installs it.

// IPVolumeGuardState is the guard section as plain structs: the fixture
// the codec tests and fuzz targets build, written and read through the
// same section code as a live guard.
type IPVolumeGuardState struct {
	Windows   []IPWindowState // sorted by address
	Throttled []ClientCount   // sorted by fingerprint
}

// IPWindowState is one address's daily budget window.
type IPWindowState struct {
	IP  netip.Addr
	Day int64
	N   int
}

// ClientCount is one fingerprint's throttle tally.
type ClientCount struct {
	Client string
	N      int
}

// WindowRows and ThrottledRows make the fixture a section source; the
// Load methods and Finish make it a section sink.
func (st *IPVolumeGuardState) WindowRows() snaprow.Rows[IPWindowState] { return snaprow.Of(st.Windows) }
func (st *IPVolumeGuardState) ThrottledRows() snaprow.Rows[ClientCount] {
	return snaprow.Of(st.Throttled)
}
func (st *IPVolumeGuardState) LoadWindows(hint int) func(*IPWindowState) {
	return snaprow.Into(&st.Windows)(hint)
}
func (st *IPVolumeGuardState) LoadThrottled(hint int) func(*ClientCount) {
	return snaprow.Into(&st.Throttled)(hint)
}
func (st *IPVolumeGuardState) Finish() error { return nil }

// WindowRows yields the per-address windows sorted by address (keys
// sort as their addresses do; see ipKey).
func (g *IPVolumeGuard) WindowRows() snaprow.Rows[IPWindowState] {
	keys := make([]ipKey, 0, len(g.slot))
	for k := range g.slot {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return snaprow.Rows[IPWindowState]{N: len(keys), Each: func(yield func(*IPWindowState)) {
		var ws IPWindowState
		for _, k := range keys {
			w := g.windows[g.slot[k]]
			ws = IPWindowState{IP: k.addr(), Day: w.day, N: w.n}
			yield(&ws)
		}
	}}
}

// ThrottledRows yields the throttle tallies sorted by fingerprint.
func (g *IPVolumeGuard) ThrottledRows() snaprow.Rows[ClientCount] {
	clients := make([]string, 0, len(g.Throttled))
	for c := range g.Throttled {
		clients = append(clients, c)
	}
	slices.Sort(clients)
	return snaprow.Rows[ClientCount]{N: len(clients), Each: func(yield func(*ClientCount)) {
		var cc ClientCount
		for _, c := range clients {
			cc = ClientCount{Client: c, N: g.Throttled[c]}
			yield(&cc)
		}
	}}
}

// StagedGuard is a decoded guard section, not yet installed.
type StagedGuard struct {
	windows   []IPWindowState
	clients   []ClientCount
	slot      map[ipKey]int
	ipWindows []ipWindow
	throttled map[string]int
}

// NewStagedGuard returns an empty staged guard section to decode into.
func NewStagedGuard() *StagedGuard { return &StagedGuard{} }

func (s *StagedGuard) LoadWindows(hint int) func(*IPWindowState) {
	return snaprow.Into(&s.windows)(hint)
}

func (s *StagedGuard) LoadThrottled(hint int) func(*ClientCount) {
	return snaprow.Into(&s.clients)(hint)
}

// Finish checks both lists came in the order WindowRows and
// ThrottledRows write them.
func (s *StagedGuard) Finish() error {
	if !snaprow.Sorted(s.windows, func(w *IPWindowState) ipKey { return keyOf(w.IP) }) ||
		!snaprow.Sorted(s.clients, func(cc *ClientCount) string { return cc.Client }) {
		return fmt.Errorf("detection: guard windows or throttle tallies are not sorted")
	}
	s.slot = make(map[ipKey]int, len(s.windows))
	s.ipWindows = make([]ipWindow, 0, len(s.windows))
	for _, w := range s.windows {
		s.slot[keyOf(w.IP)] = len(s.ipWindows)
		s.ipWindows = append(s.ipWindows, ipWindow{day: w.Day, n: w.N})
	}
	s.throttled = make(map[string]int, len(s.clients))
	for _, cc := range s.clients {
		s.throttled[cc.Client] = cc.N
	}
	return nil
}

// CommitGuard installs a staged guard section.
func (g *IPVolumeGuard) CommitGuard(s *StagedGuard) {
	g.slot, g.windows = s.slot, s.ipWindows
	g.Throttled = s.throttled
}
