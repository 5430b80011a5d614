// Package netsim models the slice of the Internet the study needs: a
// registry of autonomous systems, IPv4 address allocation within them, and
// IP-to-country geolocation.
//
// The paper's detection signals and interventions key on the ASN and IP of
// each platform request, and the services' post-intervention evasion worked
// by moving traffic across ASNs and through proxy networks. This package
// gives both sides the same address-level decision surface the real study
// had, without any real network I/O.
package netsim

import (
	"fmt"
	"net/netip"
	"sort"

	"footsteps/internal/rng"
)

// ASN identifies an autonomous system. Zero is never a valid ASN.
type ASN uint32

// Kind classifies an AS by the character of its address space. Detection
// treats traffic from hosting ASNs with more suspicion than residential.
type Kind int

// AS kinds.
const (
	KindResidential Kind = iota // consumer eyeball networks
	KindCommercial              // business / mobile carriers
	KindHosting                 // datacenters, VPS providers
)

func (k Kind) String() string {
	switch k {
	case KindResidential:
		return "residential"
	case KindCommercial:
		return "commercial"
	case KindHosting:
		return "hosting"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ASInfo describes a registered autonomous system.
type ASInfo struct {
	ASN     ASN
	Name    string
	Country string // ISO 3166-1 alpha-3, as the paper prints (USA, GBR, ...)
	Kind    Kind
}

// Registry owns the ASN table and address allocation. It carries no
// lock: each world builds its own registry and only its world goroutine
// touches it (docs/ARCHITECTURE.md, "The ownership rule").
//
// Address plan: each registered ASN receives the /8-style block
// 10.x.0.0/16 is too small for large populations, so each ASN n owns the
// 32-bit range [n<<20, (n+1)<<20) mapped into IPv4 space — a /12 per ASN,
// over a million addresses, allocated sequentially. The mapping is private
// to the simulator; only Lookup and Country inspect it.
//
// Routing generation: Generation names the current routing table. It
// starts at 1 and moves whenever a route is installed (Register,
// AnnouncePrefix), never on Allocate, which hands out addresses without
// changing who owns them. While the generation stands still, Lookup of
// any address returns the same answer, so a caller may keep a resolved
// ASN together with the generation it was resolved at and skip the trie
// until the generation moves (platform sessions do).
type Registry struct {
	infos map[ASN]ASInfo
	next  map[ASN]uint32 // next host offset within the ASN's block
	order []ASN          // registration order, for deterministic iteration
	rib   *PrefixTrie    // longest-prefix-match ownership table
	gen   uint64         // routing generation; see Generation

	// health, when set, degrades Availability answers per ASN; nil
	// means the whole network is fully available (see health.go).
	health *HealthSchedule
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		infos: make(map[ASN]ASInfo),
		next:  make(map[ASN]uint32),
		rib:   NewPrefixTrie(),
		gen:   1,
	}
}

// Generation returns the routing generation (see Registry). It is never
// 0, so a cache may use 0 for "never resolved". Read it before the
// Lookup it guards: a route installed between the two then shows up as
// a newer generation on the next read.
func (r *Registry) Generation() uint64 { return r.gen }

const hostBits = 20 // 2^20 addresses per ASN

// maxASN keeps ASN<<hostBits within 32 bits.
const maxASN = ASN(1<<(32-hostBits)) - 1

// Register adds an autonomous system. Registering the same ASN twice or an
// ASN outside (0, maxASN] is a programming error and panics.
func (r *Registry) Register(asn ASN, name, country string, kind Kind) ASInfo {
	if asn == 0 || asn > maxASN {
		panic(fmt.Sprintf("netsim: ASN %d out of range (1..%d)", asn, maxASN))
	}
	if _, dup := r.infos[asn]; dup {
		panic(fmt.Sprintf("netsim: ASN %d registered twice", asn))
	}
	info := ASInfo{ASN: asn, Name: name, Country: country, Kind: kind}
	r.infos[asn] = info
	r.order = append(r.order, asn)
	// Announce the ASN's aggregate block into the routing table.
	if err := r.rib.Insert(netip.PrefixFrom(addrFor(asn, 0), 32-hostBits), asn); err != nil {
		panic(err)
	}
	r.gen++
	return info
}

// AnnouncePrefix installs a more-specific route: prefix → asn. The ASN
// must already be registered. Longest-prefix-match applies, so a /24
// carved from another ASN's aggregate is owned by the announcer — the
// mechanics beneath leased proxy space.
func (r *Registry) AnnouncePrefix(prefix netip.Prefix, asn ASN) error {
	if _, ok := r.infos[asn]; !ok {
		return fmt.Errorf("netsim: AnnouncePrefix for unregistered ASN %d", asn)
	}
	if err := r.rib.Insert(prefix, asn); err != nil {
		return err
	}
	r.gen++
	return nil
}

// Info returns the metadata for asn.
func (r *Registry) Info(asn ASN) (ASInfo, bool) {
	info, ok := r.infos[asn]
	return info, ok
}

// ASNs returns all registered ASNs in registration order.
func (r *Registry) ASNs() []ASN {
	return append([]ASN(nil), r.order...)
}

// ByKind returns registered ASNs of the given kind, in registration order.
func (r *Registry) ByKind(kind Kind) []ASN {
	var out []ASN
	for _, a := range r.order {
		if r.infos[a].Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

// ByCountry returns registered ASNs located in country, in registration order.
func (r *Registry) ByCountry(country string) []ASN {
	var out []ASN
	for _, a := range r.order {
		if r.infos[a].Country == country {
			out = append(out, a)
		}
	}
	return out
}

// Allocate returns a fresh address inside asn's block. It panics if the ASN
// is unregistered or its block is exhausted.
func (r *Registry) Allocate(asn ASN) netip.Addr {
	if _, ok := r.infos[asn]; !ok {
		panic(fmt.Sprintf("netsim: Allocate from unregistered ASN %d", asn))
	}
	host := r.next[asn]
	if host >= 1<<hostBits {
		panic(fmt.Sprintf("netsim: ASN %d address block exhausted", asn))
	}
	r.next[asn] = host + 1
	return addrFor(asn, host)
}

// AllocState is one ASN's allocation cursor — the only mutable state a
// Registry accumulates after construction. Snapshots carry these so a
// restored world hands out the same future addresses the original would.
type AllocState struct {
	ASN  ASN
	Next uint32
}

// SnapshotAlloc returns the allocation cursors of every ASN that has
// handed out at least one address, sorted by ASN.
func (r *Registry) SnapshotAlloc() []AllocState {
	out := make([]AllocState, 0, len(r.next))
	for asn, n := range r.next {
		out = append(out, AllocState{ASN: asn, Next: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// RestoreAlloc overwrites the allocation cursors with a snapshot taken by
// SnapshotAlloc. ASNs absent from st reset to an untouched block.
func (r *Registry) RestoreAlloc(st []AllocState) {
	clear(r.next)
	for _, a := range st {
		r.next[a.ASN] = a.Next
	}
}

func addrFor(asn ASN, host uint32) netip.Addr {
	v := uint32(asn)<<hostBits | host
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Lookup returns the ASN owning addr under longest-prefix-match, or
// (0, false) for addresses outside any announced block.
func (r *Registry) Lookup(addr netip.Addr) (ASN, bool) {
	return r.rib.Lookup(addr)
}

// Country geolocates addr to the country of its owning ASN. Unknown
// addresses geolocate to "" — the platform records them but cannot place
// them, mirroring gaps in real IP geolocation databases.
func (r *Registry) Country(addr netip.Addr) string {
	asn, ok := r.Lookup(addr)
	if !ok {
		return ""
	}
	return r.infos[asn].Country
}

// ProxyPool is a set of addresses spread across many ASNs, used by services
// to diversify the origin of their traffic after detection (§6.4 epilogue:
// "one of them going so far as to use an extensive proxy network to
// drastically increase IP diversity").
type ProxyPool struct {
	addrs []netip.Addr
	rng   *rng.RNG
}

// NewProxyPool draws size proxy addresses, spreading them round-robin over
// the given ASNs. It panics if asns is empty or size is not positive.
func NewProxyPool(reg *Registry, asns []ASN, size int, r *rng.RNG) *ProxyPool {
	if len(asns) == 0 {
		panic("netsim: proxy pool with no ASNs")
	}
	if size <= 0 {
		panic("netsim: proxy pool with non-positive size")
	}
	p := &ProxyPool{addrs: make([]netip.Addr, 0, size), rng: r}
	for i := 0; i < size; i++ {
		p.addrs = append(p.addrs, reg.Allocate(asns[i%len(asns)]))
	}
	return p
}

// Pick returns a uniformly chosen proxy address.
func (p *ProxyPool) Pick() netip.Addr {
	return p.addrs[p.rng.Intn(len(p.addrs))]
}

// PickFrom returns a uniformly chosen proxy address drawing from r
// instead of the pool's own stream — for callers (such as per-customer
// resilience paths) that must not consume draws from the shared pool
// stream.
func (p *ProxyPool) PickFrom(r *rng.RNG) netip.Addr {
	return p.addrs[r.Intn(len(p.addrs))]
}

// Size returns the number of proxies in the pool.
func (p *ProxyPool) Size() int { return len(p.addrs) }

// DistinctASNs reports how many distinct ASNs the pool spans — the paper's
// measure of post-block IP diversity.
func (p *ProxyPool) DistinctASNs(reg *Registry) int {
	seen := make(map[ASN]struct{})
	for _, a := range p.addrs {
		if asn, ok := reg.Lookup(a); ok {
			seen[asn] = struct{}{}
		}
	}
	return len(seen)
}

// CountryShare aggregates a set of addresses into per-country fractions,
// the computation behind Figure 2. Countries below the threshold fraction
// collapse into "OTHER". The result is sorted by descending share, with
// OTHER always last when present.
func CountryShare(reg *Registry, addrs []netip.Addr, threshold float64) []CountryFraction {
	if len(addrs) == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, a := range addrs {
		c := reg.Country(a)
		if c == "" {
			c = "OTHER"
		}
		counts[c]++
	}
	total := float64(len(addrs))
	other := 0
	var out []CountryFraction
	for c, n := range counts {
		frac := float64(n) / total
		if c == "OTHER" || frac < threshold {
			other += n
			continue
		}
		out = append(out, CountryFraction{Country: c, Fraction: frac})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fraction != out[j].Fraction {
			return out[i].Fraction > out[j].Fraction
		}
		return out[i].Country < out[j].Country
	})
	if other > 0 {
		out = append(out, CountryFraction{Country: "OTHER", Fraction: float64(other) / total})
	}
	return out
}

// CountryFraction is one bar of the Figure 2 chart.
type CountryFraction struct {
	Country  string
	Fraction float64
}
