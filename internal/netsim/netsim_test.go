package netsim

import (
	"math"
	"net/netip"
	"testing"

	"footsteps/internal/rng"
)

func newTestRegistry() *Registry {
	r := NewRegistry()
	r.Register(100, "ru-host", "RUS", KindHosting)
	r.Register(200, "us-host", "USA", KindHosting)
	r.Register(300, "id-res", "IDN", KindResidential)
	r.Register(400, "us-res", "USA", KindResidential)
	return r
}

func TestRegisterAndInfo(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	info, ok := r.Info(100)
	if !ok || info.Name != "ru-host" || info.Country != "RUS" || info.Kind != KindHosting {
		t.Fatalf("Info(100) = %+v, %v", info, ok)
	}
	if _, ok := r.Info(999); ok {
		t.Fatal("Info on unregistered ASN succeeded")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	r.Register(100, "dup", "USA", KindHosting)
}

func TestRegisterZeroPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Register(0) did not panic")
		}
	}()
	NewRegistry().Register(0, "zero", "USA", KindHosting)
}

func TestAllocateLookupRoundTrip(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	for i := 0; i < 100; i++ {
		addr := r.Allocate(300)
		asn, ok := r.Lookup(addr)
		if !ok || asn != 300 {
			t.Fatalf("Lookup(%v) = %v, %v; want 300", addr, asn, ok)
		}
		if got := r.Country(addr); got != "IDN" {
			t.Fatalf("Country(%v) = %q, want IDN", addr, got)
		}
	}
}

func TestAllocateDistinct(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	seen := make(map[netip.Addr]bool)
	for i := 0; i < 1000; i++ {
		a := r.Allocate(100)
		if seen[a] {
			t.Fatalf("Allocate returned duplicate address %v", a)
		}
		seen[a] = true
	}
}

func TestAllocateUnregisteredPanics(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("Allocate from unregistered ASN did not panic")
		}
	}()
	r.Allocate(999)
}

func TestLookupUnknown(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	if _, ok := r.Lookup(netip.MustParseAddr("255.255.255.255")); ok {
		t.Fatal("Lookup of unallocated space succeeded")
	}
	if _, ok := r.Lookup(netip.MustParseAddr("::1")); ok {
		t.Fatal("Lookup of IPv6 succeeded")
	}
	if c := r.Country(netip.MustParseAddr("255.255.255.255")); c != "" {
		t.Fatalf("Country of unknown address = %q", c)
	}
}

func TestByKindByCountry(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	hosting := r.ByKind(KindHosting)
	if len(hosting) != 2 || hosting[0] != 100 || hosting[1] != 200 {
		t.Fatalf("ByKind(hosting) = %v", hosting)
	}
	usa := r.ByCountry("USA")
	if len(usa) != 2 || usa[0] != 200 || usa[1] != 400 {
		t.Fatalf("ByCountry(USA) = %v", usa)
	}
	if got := r.ASNs(); len(got) != 4 {
		t.Fatalf("ASNs() = %v", got)
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	if KindResidential.String() != "residential" || KindHosting.String() != "hosting" ||
		KindCommercial.String() != "commercial" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatalf("unknown kind string %q", Kind(42).String())
	}
}

func TestProxyPoolSpansASNs(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	pool := NewProxyPool(r, []ASN{100, 200, 300}, 90, rng.New(1))
	if pool.Size() != 90 {
		t.Fatalf("Size() = %d", pool.Size())
	}
	if got := pool.DistinctASNs(r); got != 3 {
		t.Fatalf("DistinctASNs = %d, want 3", got)
	}
	// Pick always returns pool members.
	members := make(map[netip.Addr]bool)
	for _, a := range pool.addrs {
		members[a] = true
	}
	for i := 0; i < 200; i++ {
		if !members[pool.Pick()] {
			t.Fatal("Pick returned non-member address")
		}
	}
}

func TestProxyPoolPanics(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	for name, fn := range map[string]func(){
		"no asns":   func() { NewProxyPool(r, nil, 5, rng.New(1)) },
		"zero size": func() { NewProxyPool(r, []ASN{100}, 0, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCountryShare(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	var addrs []netip.Addr
	for i := 0; i < 60; i++ {
		addrs = append(addrs, r.Allocate(300)) // IDN
	}
	for i := 0; i < 30; i++ {
		addrs = append(addrs, r.Allocate(200)) // USA
	}
	for i := 0; i < 10; i++ {
		addrs = append(addrs, r.Allocate(100)) // RUS
	}
	shares := CountryShare(r, addrs, 0.20)
	if len(shares) != 3 {
		t.Fatalf("shares = %+v", shares)
	}
	if shares[0].Country != "IDN" || math.Abs(shares[0].Fraction-0.6) > 1e-9 {
		t.Fatalf("top share = %+v", shares[0])
	}
	if shares[1].Country != "USA" {
		t.Fatalf("second share = %+v", shares[1])
	}
	if shares[2].Country != "OTHER" || math.Abs(shares[2].Fraction-0.1) > 1e-9 {
		t.Fatalf("OTHER share = %+v", shares[2])
	}
}

func TestCountryShareEmpty(t *testing.T) {
	t.Parallel()
	if CountryShare(newTestRegistry(), nil, 0.05) != nil {
		t.Fatal("CountryShare(nil) != nil")
	}
}

func TestCountryShareFractionsSumToOne(t *testing.T) {
	t.Parallel()
	r := newTestRegistry()
	var addrs []netip.Addr
	for _, asn := range []ASN{100, 200, 300, 400} {
		for i := 0; i < 25; i++ {
			addrs = append(addrs, r.Allocate(asn))
		}
	}
	var sum float64
	for _, s := range CountryShare(r, addrs, 0.05) {
		sum += s.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestRegistryGenerationFollowsRoutes(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Generation()
	if g == 0 {
		t.Fatal("a fresh registry's generation is 0, the value caches reserve for never resolved")
	}
	step := func(what string, moves bool) {
		t.Helper()
		now := r.Generation()
		if moved := now != g; moved != moves {
			t.Fatalf("%s: generation %d -> %d, want moved=%v", what, g, now, moves)
		}
		g = now
	}
	r.Register(100, "ru-host", "RUS", KindHosting)
	step("Register", true)
	a := r.Allocate(100)
	step("Allocate", false)
	r.RestoreAlloc(r.SnapshotAlloc())
	step("RestoreAlloc", false)
	r.Register(200, "us-host", "USA", KindHosting)
	step("second Register", true)
	if err := r.AnnouncePrefix(netip.PrefixFrom(a, 24).Masked(), 200); err != nil {
		t.Fatal(err)
	}
	step("AnnouncePrefix", true)
	if asn, _ := r.Lookup(a); asn != 200 {
		t.Fatalf("Lookup after AnnouncePrefix = %d, want 200", asn)
	}
	if err := r.AnnouncePrefix(netip.PrefixFrom(a, 24).Masked(), 999); err == nil {
		t.Fatal("AnnouncePrefix for an unregistered ASN succeeded")
	}
	step("rejected AnnouncePrefix", false)
}
