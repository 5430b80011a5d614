package core

import (
	"footsteps/internal/faults"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// Option mutates a Config during construction. Options compose left to
// right over a base config, so new knobs stop widening struct literals:
//
//	cfg := core.New(core.WithDays(30), core.WithFaults("storm"))
//
// The plain Config struct keeps working — options are a front door, not
// a replacement.
type Option func(*Config)

// New returns DefaultConfig with the options applied.
func New(opts ...Option) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// NewTest returns TestConfig with the options applied.
func NewTest(opts ...Option) Config {
	cfg := TestConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithSeed sets the run seed.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithScale sets the customer-dynamics scale.
func WithScale(scale float64) Option { return func(c *Config) { c.Scale = scale } }

// WithDays sets the measurement-window length.
func WithDays(days int) Option { return func(c *Config) { c.Days = days } }

// WithGraphWrites toggles full social-graph fidelity.
func WithGraphWrites(on bool) Option { return func(c *Config) { c.GraphWrites = on } }

// WithOrganicPopulation sets the general-population size.
func WithOrganicPopulation(n int) Option { return func(c *Config) { c.OrganicPopulation = n } }

// WithPoolSize sets each reciprocity service's target-pool size.
func WithPoolSize(n int) Option { return func(c *Config) { c.PoolSize = n } }

// WithVPNUsers sets the benign-VPN-user count.
func WithVPNUsers(n int) Option { return func(c *Config) { c.VPNUsers = n } }

// WithIPDailyBudget sets the per-IP daily action cap (0 disables).
func WithIPDailyBudget(n int) Option { return func(c *Config) { c.IPDailyBudget = n } }

// WithTelemetry attaches a telemetry registry (nil disables).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Config) { c.Telemetry = reg }
}

// WithTrace attaches a span tracer (nil disables). Tracing is a pure
// observer; the event stream is byte-identical with it on or off at any
// sample rate — see docs/OBSERVABILITY.md.
func WithTrace(tr *trace.Tracer) Option {
	return func(c *Config) { c.Trace = tr }
}

// WithFaults enables the named built-in fault scenario (blip, flap,
// asn-outage, storm, mixed — see docs/FAULTS.md). It panics on an
// unknown name, like faults.MustScenario.
func WithFaults(name string) Option {
	return func(c *Config) { c.Faults = faults.MustScenario(name) }
}

// WithFaultProfile attaches a fully built fault profile (nil disables).
func WithFaultProfile(p *faults.Profile) Option {
	return func(c *Config) { c.Faults = p }
}

// WithCheckpointEvery makes RunDays write a snapshot after every n
// completed days (0 disables; see docs/PERSISTENCE.md).
func WithCheckpointEvery(n int) Option {
	return func(c *Config) { c.CheckpointEvery = n }
}

// WithCheckpointDir sets where periodic checkpoints are written.
func WithCheckpointDir(dir string) Option {
	return func(c *Config) { c.CheckpointDir = dir }
}

// WithServer enables the HTTP/WS serving layer on addr (host:port).
// See docs/API.md for the endpoints and the determinism contract.
func WithServer(addr string) Option {
	return func(c *Config) { c.ServeAddr = addr }
}

// WithServeQueueDepth bounds the ingress queue between network handlers
// and the world loop (0 = server default). A full queue rejects with
// the wire "overloaded" code.
func WithServeQueueDepth(n int) Option {
	return func(c *Config) { c.ServeQueueDepth = n }
}

// WithServePace sets simulated seconds per wall-clock second while
// serving (1.0 = real time; 0 = server default).
func WithServePace(pace float64) Option {
	return func(c *Config) { c.ServePace = pace }
}

// WithServeIngressLog records admitted envelopes and their drain
// instants to a FING1 file for later replay.
func WithServeIngressLog(path string) Option {
	return func(c *Config) { c.ServeIngressLog = path }
}
