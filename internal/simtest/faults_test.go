package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/faults"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

// faultedConfig is smallConfig with the "mixed" built-in scenario: all
// five fault kinds firing inside the six-day window.
func faultedConfig(seed uint64) core.Config {
	cfg := smallConfig(seed)
	cfg.Faults = faults.MustScenario("mixed")
	return cfg
}

// TestFaultsOffGoldenStream pins the faults-off event stream to the
// exact bytes it produced before the fault-injection layer existed.
// The fault hook sits on the platform's hot request path, so this is
// the regression proving a nil injector is not merely "deterministic"
// but inert: same length, same sha256, bit for bit.
//
// If this fails after an intentional stream-format change, regenerate
// with:
//
//	go test ./internal/simtest -run TestFaultsOffGoldenStream -v
//
// and copy the printed hash/length here — but only after confirming the
// change is meant to move faults-off bytes (see docs/FAULTS.md).
func TestFaultsOffGoldenStream(t *testing.T) {
	t.Parallel()
	const (
		wantHash = "fb3cf3641ce581995b04def49af3e7c21d2ab9af81610e787daee77ad9cec51f"
		wantLen  = 677665
	)
	got := Capture(smallConfig(1))
	sum := sha256.Sum256(got)
	gotHash := hex.EncodeToString(sum[:])
	if len(got) != wantLen || gotHash != wantHash {
		t.Fatalf("faults-off stream moved:\n got  %s (len %d)\n want %s (len %d)",
			gotHash, len(got), wantHash, wantLen)
	}
}

// TestFaultedStreamDeterminism is the determinism contract with a fault
// profile active: worlds stepping side by side produce the stream of a
// world stepping on its own — fault verdicts are pure functions of
// (seed, request), not of scheduling or of other worlds in the process.
func TestFaultedStreamDeterminism(t *testing.T) {
	t.Parallel()
	want := Capture(faultedConfig(1))

	// Vacuity guard: the scenario must actually have injected faults,
	// otherwise equality proves nothing about the injector.
	if n := countUnavailable(t, want); n < 50 {
		t.Fatalf("mixed scenario emitted only %d unavailable events; faulted comparison would be vacuous", n)
	}

	got := make([][]byte, 2)
	sideBySide(len(got), func(i int) { got[i] = Capture(faultedConfig(1)) })
	for i, g := range got {
		if !bytes.Equal(want, g) {
			t.Errorf("world %d of %d side by side: faulted stream diverged from the world run alone: %s != %s (lengths %d vs %d)",
				i+1, len(got), Hash(g), Hash(want), len(g), len(want))
		}
	}
}

// TestFaultedStreamDiffersFromBaseline guards against the opposite
// failure: an injector that validates and wires but never actually
// changes anything. The faulted stream must not equal the clean one.
func TestFaultedStreamDiffersFromBaseline(t *testing.T) {
	t.Parallel()
	clean := Capture(smallConfig(2))
	faulted := Capture(faultedConfig(2))
	if bytes.Equal(clean, faulted) {
		t.Fatal("mixed fault scenario produced a byte-identical stream to the clean run; injection is dead")
	}
}

// TestFaultRetryProperties checks the client-resilience safety
// properties on a full faulted run with graph fidelity on:
//
//  1. No double emission: retried actions never create a second
//     effective follow edge — for every (actor, target) pair the running
//     follow balance (non-duplicate allowed follows minus non-duplicate
//     allowed unfollows, enforcement included) stays in {0, 1}.
//  2. No double counting: rate-limit accounting never exceeds the
//     configured hourly cap — per (actor, hour, API) the number of
//     quota-consuming events (allowed or blocked; unavailable and
//     rate-limited requests consume none) is at most the API's limit.
//     Storms only ever tighten the cap, so the ordinary limit bounds
//     every bucket.
//  3. The resilience machinery actually ran: faults were injected,
//     retries were scheduled, and re-logins were attempted.
func TestFaultRetryProperties(t *testing.T) {
	t.Parallel()
	cfg := faultedConfig(5)
	cfg.GraphWrites = true
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	stream := Capture(cfg)

	limits := map[platform.APIKind]int{
		platform.APIPrivate: platform.DefaultConfig().PrivateHourlyLimit,
		platform.APIOAuth:   platform.DefaultConfig().OAuthHourlyLimit,
	}

	type pair struct{ actor, target platform.AccountID }
	type bucket struct {
		actor platform.AccountID
		hour  int64
		api   platform.APIKind
	}
	balance := make(map[pair]int)
	quota := make(map[bucket]int)

	r, err := eventio.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	unavailable := 0
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Outcome == platform.OutcomeUnavailable {
			unavailable++
		}

		// Property 1: follow-edge balance.
		if ev.Outcome == platform.OutcomeAllowed && !ev.Duplicate {
			switch ev.Type {
			case platform.ActionFollow:
				k := pair{ev.Actor, ev.Target}
				balance[k]++
				if balance[k] > 1 {
					t.Fatalf("double follow edge: actor %d -> target %d reached balance %d at %s",
						ev.Actor, ev.Target, balance[k], ev.Time)
				}
			case platform.ActionUnfollow:
				k := pair{ev.Actor, ev.Target}
				balance[k]--
				if balance[k] < 0 {
					t.Fatalf("unfollow without follow: actor %d -> target %d reached balance %d at %s",
						ev.Actor, ev.Target, balance[k], ev.Time)
				}
			}
		}

		// Property 2: rate-limit accounting. Only post-limiter outcomes
		// consume quota; enforcement actions and logins bypass it.
		if ev.Type != platform.ActionLogin && !ev.Enforcement &&
			(ev.Outcome == platform.OutcomeAllowed || ev.Outcome == platform.OutcomeBlocked) {
			b := bucket{ev.Actor, ev.Time.Unix() / 3600, ev.API}
			quota[b]++
			if lim := limits[ev.API]; lim > 0 && quota[b] > lim {
				t.Fatalf("rate-limit over-count: actor %d consumed %d quota events in hour %d (api %d, limit %d)",
					ev.Actor, quota[b], b.hour, ev.API, lim)
			}
		}
	}

	// Property 3: non-vacuity, from telemetry.
	c := reg.Snapshot().Counters
	if unavailable == 0 {
		t.Error("no unavailable events in faulted stream; properties above are vacuous")
	}
	if c["faults.injected.unavailable"] == 0 {
		t.Error("faults.injected.unavailable counter is zero under the mixed scenario")
	}
	if c["faults.injected.session_flap"] == 0 {
		t.Error("faults.injected.session_flap counter is zero under the mixed scenario")
	}
	if c["platform.ratelimit.storm_denied"] == 0 {
		t.Error("no storm-attributed rate-limit denials under the mixed scenario")
	}
	retries, relogins := int64(0), int64(0)
	for k, v := range c {
		if strings.HasPrefix(k, "aas.") && strings.HasSuffix(k, ".retries.scheduled") {
			retries += v
		}
		if strings.HasPrefix(k, "aas.") && strings.HasSuffix(k, ".relogin.attempts") {
			relogins += v
		}
	}
	if retries == 0 {
		t.Error("no AAS retries were scheduled under the mixed scenario")
	}
	if relogins == 0 {
		t.Error("no AAS re-logins were attempted under the mixed scenario")
	}
}

// TestFaultedTelemetryStable asserts the fault/retry counters are
// themselves deterministic: the same faulted config yields the same
// counter values in a world stepping alone and in worlds stepping side
// by side (the report's resilience section is part of the reproducible
// output).
func TestFaultedTelemetryStable(t *testing.T) {
	t.Parallel()
	counters := func() string {
		cfg := faultedConfig(9)
		cfg.Telemetry = telemetry.NewRegistry()
		Capture(cfg)
		return faultCounters(cfg.Telemetry)
	}
	want := counters()
	if want == "" {
		t.Fatal("no fault/resilience counters recorded; comparison is vacuous")
	}
	got := make([]string, 2)
	sideBySide(len(got), func(i int) { got[i] = counters() })
	for i, g := range got {
		if g != want {
			t.Errorf("world %d of %d side by side: fault counters diverged from the world run alone:\n--- alone\n%s--- side by side\n%s",
				i+1, len(got), want, g)
		}
	}
}

// faultCounters renders the fault and resilience counters of reg, one
// "name=value" line each in name order: the report's resilience section
// is part of the reproducible output.
func faultCounters(reg *telemetry.Registry) string {
	snap := reg.Snapshot().Counters
	var b strings.Builder
	for _, k := range sortedKeys(snap) {
		if strings.HasPrefix(k, "faults.") || strings.Contains(k, ".retries.") ||
			strings.Contains(k, ".breaker.") || strings.Contains(k, ".relogin.") ||
			strings.Contains(k, ".shed.") {
			fmt.Fprintf(&b, "%s=%d\n", k, snap[k])
		}
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// countUnavailable decodes a stream and counts OutcomeUnavailable events.
func countUnavailable(t *testing.T, stream []byte) int {
	t.Helper()
	r, err := eventio.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Outcome == platform.OutcomeUnavailable {
			n++
		}
	}
}
