package faults

import (
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/telemetry"
)

// Injector turns a Profile into per-request fault verdicts. It
// implements platform.FaultInjector.
//
// The injector is seeded with exactly one draw from a dedicated forked
// rng stream and is stateless afterwards: every verdict is a pure
// function of (seed, window, request identity). That property is what
// keeps faulted runs byte-identical from run to run: no matter which
// request asks first, the answer for a given request is the same.
type Injector struct {
	profile *Profile
	seed    uint64
	reg     *netsim.Registry // resolves per-ASN availability; nil until BindNetwork

	// Telemetry instruments are pure observers and nil-safe.
	telUnavailable *telemetry.Counter
	telFlap        *telemetry.Counter
	telLatency     *telemetry.Counter
	telOutage      *telemetry.Counter
	latencyMS      *telemetry.Histogram
}

// NewInjector builds an injector for the profile, consuming one seed
// draw from r. Callers pass a dedicated stream (root.Split("faults"))
// so the draw shifts nothing else; a nil profile yields an injector
// that never injects.
func NewInjector(p *Profile, r *rng.RNG) *Injector {
	return &Injector{profile: p, seed: r.Uint64()}
}

// Profile returns the schedule the injector runs.
func (i *Injector) Profile() *Profile { return i.profile }

// BindNetwork installs the profile's ASN outage windows as reg's
// health schedule and uses reg to resolve per-request availability.
func (i *Injector) BindNetwork(reg *netsim.Registry) {
	i.reg = reg
	if h := i.profile.HealthSchedule(); h != nil {
		reg.SetHealth(h)
	}
}

// WireTelemetry registers the injected-fault instruments (see
// docs/OBSERVABILITY.md). Nil registry wires nil, no-op instruments.
func (i *Injector) WireTelemetry(reg *telemetry.Registry) {
	i.telUnavailable = reg.Counter("faults.injected.unavailable")
	i.telFlap = reg.Counter("faults.injected.session_flap")
	i.telLatency = reg.Counter("faults.injected.latency")
	i.telOutage = reg.Counter("faults.injected.asn_outage")
	i.latencyMS = reg.Histogram("faults.latency.ms", latencyBuckets)
}

var latencyBuckets = []int64{10, 30, 100, 300, 1_000, 3_000, 10_000}

// outageStream is the roll-stream index for ASN-outage verdicts; it
// sits beyond any window index so the roll cannot collide with a
// window's own stream.
const outageStream = 1 << 32

// Decide returns the fault verdict for one request. It implements
// platform.FaultInjector and must stay a pure function of its
// arguments and the injector seed (see docs/FAULTS.md): the platform
// calls it under its write lock from the serial apply path, but the
// determinism argument must not depend on that.
func (i *Injector) Decide(now time.Time, actor platform.AccountID, action platform.ActionType, asn netsim.ASN, salt uint64) platform.FaultDecision {
	var d platform.FaultDecision
	if i == nil || i.profile == nil {
		return d
	}
	day := float64(now.Sub(clock.Epoch)) / float64(24*time.Hour)
	for wi := range i.profile.Windows {
		w := &i.profile.Windows[wi]
		if !w.active(day) {
			continue
		}
		switch w.Kind {
		case KindUnavailable:
			if !d.Unavailable && i.roll(uint64(wi), now, actor, action, salt) < w.Probability {
				d.Unavailable = true
				i.telUnavailable.Inc()
			}
		case KindLatency:
			if i.roll(uint64(wi), now, actor, action, salt) < w.Probability {
				d.Latency += w.latency()
			}
		case KindSessionFlap:
			// Logins are exempt: a flap revokes established sessions,
			// and exempting login keeps recovery possible even at
			// high flap rates.
			if action != platform.ActionLogin && !d.RevokeSession &&
				i.roll(uint64(wi), now, actor, action, salt) < w.Probability {
				d.RevokeSession = true
				i.telFlap.Inc()
			}
		case KindRateLimitStorm:
			// Overlapping storms take the tightest limit.
			if d.LimitScale == 0 || w.LimitScale < d.LimitScale {
				d.LimitScale = w.LimitScale
			}
		}
	}
	if i.reg != nil && !d.Unavailable {
		if avail := i.reg.Availability(asn, now); avail < 1 {
			if i.roll(outageStream, now, actor, action, salt) >= avail {
				d.Unavailable = true
				i.telOutage.Inc()
			}
		}
	}
	if d.Latency > 0 {
		i.telLatency.Inc()
		i.latencyMS.Observe(int64(d.Latency / time.Millisecond))
	}
	return d
}

// roll maps (seed, roll stream, request identity) to a uniform float64
// in [0, 1). It is a pure function — no state, no draw sequence — so a
// request's verdict cannot depend on scheduling or how many other
// requests were rolled before it.
func (i *Injector) roll(stream uint64, now time.Time, actor platform.AccountID, action platform.ActionType, salt uint64) float64 {
	x := mix64(i.seed ^ stream)
	x = mix64(x ^ uint64(now.UnixNano()))
	x = mix64(x ^ uint64(actor))
	x = mix64(x ^ (uint64(action) + salt<<8))
	return float64(x>>11) / (1 << 53)
}

// mix64 is the SplitMix64 finalizer — the same avalanche mixer the rng
// package uses for Fork lineage derivation.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
