// Package core orchestrates the full study: it assembles the simulated
// world (platform, organic population, the five AASs, honeypot framework),
// runs the paper's experiments, and renders every table and figure of the
// evaluation. See DESIGN.md for the experiment-to-module index.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"footsteps/internal/faults"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// Config sizes a study world. The zero value is unusable; start from
// DefaultConfig or TestConfig.
type Config struct {
	// Seed drives every stochastic choice; equal seeds replay identical
	// studies.
	Seed uint64

	// Scale multiplies the paper-scale customer dynamics (1.0 would be
	// Instagram-sized; the default harness runs 1/500).
	Scale float64

	// Days is the measurement window length (the paper used 90).
	Days int

	// OrganicPopulation is the general-population size used for random
	// baselines (Figures 3/4).
	OrganicPopulation int

	// PoolSize is each reciprocity service's curated target pool size.
	PoolSize int

	// VPNUsers is the number of benign users routing through the cloud
	// ASN that Hublaagram also uses — the "benign traffic blended in"
	// that forces the 99th-percentile threshold rule on mixed ASNs (§6.2).
	VPNUsers int

	// GraphWrites enables full social-graph fidelity. Population-scale
	// business studies turn it off and work from the event stream.
	GraphWrites bool

	// IncludeFollowersgratis adds the fifth service. The paper drops it
	// from §5 onward ("very limited impact"); it stays available for the
	// user-experience studies.
	IncludeFollowersgratis bool

	// ScaleOverride multiplies Scale for individual services (by catalog
	// name). Useful to keep an experiment focused: the narrow-intervention
	// tests shrink Hublaagram's million-account base without touching the
	// service under study.
	ScaleOverride map[string]float64

	// IPDailyBudget is the pre-existing per-IP daily action cap (§5) that
	// had already neutered Followersgratis before the study. 0 disables
	// it. At simulation scale the default is generous enough that only
	// services concentrating volume on a handful of addresses feel it.
	IPDailyBudget int

	// Telemetry, when non-nil, receives counters, gauges, and tick-phase
	// histograms from every layer of the world. Telemetry is a pure
	// observer: it consumes no RNG draws and feeds nothing back into the
	// simulation, so the event stream is byte-identical with it on or off
	// (see docs/OBSERVABILITY.md). nil disables instrumentation.
	Telemetry *telemetry.Registry

	// DisableScratchReuse turns off cross-tick reuse of planning scratch
	// (intent buffers, chunk bounds, customer filter slices) throughout
	// the world, restoring fresh per-tick allocations. Reuse is a pure
	// memory optimization — the event stream is byte-identical either
	// way, pinned by the pooling property test in internal/simtest. The
	// knob exists for that test and for bisecting suspected scratch
	// leaks; leave it off (reuse on) otherwise.
	DisableScratchReuse bool

	// Faults, when non-nil, schedules deterministic infrastructure
	// faults — transient unavailability, session-store flaps, ASN
	// outages, rate-limit storms — injected by the platform on every
	// request (see docs/FAULTS.md). nil (the default) disables
	// injection; a faults-off run is byte-identical to a build without
	// the fault layer, and any faulted run is byte-identical from run
	// to run.
	Faults *faults.Profile

	// Trace, when non-nil, streams deterministic span records from every
	// layer of the world — request pipeline stages, tick sections, AAS
	// retries and breaker transitions, enforcement decisions — to the
	// tracer's FTRC1 sink. Like Telemetry it is a pure observer: span
	// identity derives from (tick, seq), the sampler is a pure function
	// of (seed, identity), and nothing feeds back, so the event stream
	// and report are byte-identical with tracing on or off at any sample
	// rate (see docs/OBSERVABILITY.md). nil disables tracing.
	Trace *trace.Tracer

	// CheckpointEvery makes World.RunDays write a snapshot after every
	// N completed days (see docs/PERSISTENCE.md). 0 disables. It never
	// changes the event stream, only what gets written to disk alongside
	// it.
	CheckpointEvery int

	// CheckpointDir is where periodic checkpoints land. Empty disables
	// checkpointing even when CheckpointEvery is set.
	CheckpointDir string

	// Serving-layer knobs (internal/server, cmd/footsteps serve — see
	// docs/API.md). All of them shape how network ingress reaches the
	// world loop, never what the world does with it, so like Telemetry
	// and Trace they are excluded from Fingerprint and a snapshot taken
	// under one serving config restores under any other.

	// ServeAddr is the listen address for the HTTP/WS front end
	// (host:port). Empty means serving is off.
	ServeAddr string

	// ServeQueueDepth bounds the ingress queue between handler
	// goroutines and the world loop. A full queue fails requests with
	// the wire "overloaded" code instead of blocking handlers.
	// 0 means the server default.
	ServeQueueDepth int

	// ServePace is how many simulated seconds elapse per wall-clock
	// second while serving (1.0 = real time; 0 means the server
	// default). Pacing only chooses the drain instants; the recorded
	// ingress log replays identically at any pace.
	ServePace float64

	// ServeMaxBatch caps how many queued envelopes one drain applies
	// (0 means the server default). Bounding the batch keeps worst-case
	// drain latency flat under load; the remainder stays queued for the
	// next drain.
	ServeMaxBatch int

	// ServeIngressLog, when non-empty, records every admitted envelope
	// with its drain instant to this FING1 file, making the served run
	// replayable (cmd/footsteps replay -ingress-log).
	ServeIngressLog string
}

// Fingerprint hashes every semantic config field — the knobs that shape
// the simulated timeline. Pure performance and observability knobs
// (Telemetry, Trace, DisableScratchReuse, the checkpoint and serving
// settings) are excluded, so a snapshot taken with them one way restores
// with them any other way. Seed is also excluded: it travels in the
// snapshot header as its own field with its own mismatch diagnostic.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "scale=%g days=%d pop=%d pool=%d vpn=%d graph=%t fgratis=%t ipbudget=%d",
		c.Scale, c.Days, c.OrganicPopulation, c.PoolSize, c.VPNUsers,
		c.GraphWrites, c.IncludeFollowersgratis, c.IPDailyBudget)
	names := make([]string, 0, len(c.ScaleOverride))
	for name := range c.ScaleOverride {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, " so:%s=%g", name, c.ScaleOverride[name])
	}
	if c.Faults != nil {
		fmt.Fprintf(h, " faults=%+v", *c.Faults)
	}
	return h.Sum64()
}

// scaleFor returns the effective customer-dynamics scale for a service.
func (c Config) scaleFor(name string) float64 {
	s := c.Scale
	if o, ok := c.ScaleOverride[name]; ok {
		s *= o
	}
	return s
}

// DefaultConfig is the harness scale: 1/500 of the paper's populations,
// the full 90-day window.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		Scale:             1.0 / 500,
		Days:              90,
		OrganicPopulation: 4000,
		PoolSize:          3000,
		VPNUsers:          150,
		GraphWrites:       false,
		IPDailyBudget:     2000,
	}
}

// TestConfig is small enough for unit tests: 1/5000 scale, 30 days.
func TestConfig() Config {
	return Config{
		Seed:              1,
		Scale:             1.0 / 5000,
		Days:              30,
		OrganicPopulation: 800,
		PoolSize:          600,
		VPNUsers:          40,
		GraphWrites:       false,
		IPDailyBudget:     2000,
	}
}
