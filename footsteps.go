// Package footsteps reproduces "Following Their Footsteps: Characterizing
// Account Automation Abuse and Defenses" (DeKoven et al., IMC 2018) as a
// runnable system: a simulated photo-sharing platform, the five Account
// Automation Services the paper studied, the honeypot measurement
// framework, platform-side detection, revenue estimation, and the
// intervention experiments.
//
// The entry point is a Study, built over a Config:
//
//	study := footsteps.NewStudy(footsteps.DefaultConfig())
//	table5, err := study.Reciprocation(9, 3)
//	fmt.Print(footsteps.FormatTable5(table5))
//
// A Study owns one simulated world; each of the paper's experiment
// families consumes the world's timeline, so build a fresh Study per
// experiment:
//
//   - Reciprocation: Table 5 (§4.3) — honeypot measurement of organic
//     reciprocation rates.
//   - Business: Tables 6–11 and Figures 2–4 (§5) — 90-day customer,
//     geography, and revenue characterization.
//   - NarrowIntervention / BroadIntervention: Figures 5–7 (§6) — blocking
//     versus delayed removal and how the services react.
//   - Adaptation: the §6.4 epilogue — proxy-network evasion and the
//     Hublaagram endgame.
//
// Static catalog data (Tables 1–4) is available without running anything
// via FormatTable1 … FormatTable4 and the aas catalog they render.
//
// Everything is deterministic under Config.Seed and runs on a simulated
// clock; a full 90-day study executes in seconds. See DESIGN.md for the
// substitution argument mapping each paper artifact to a module here, and
// EXPERIMENTS.md for paper-versus-measured results.
package footsteps

import (
	"footsteps/internal/core"
	"footsteps/internal/wire"
)

// Config sizes a study; see DefaultConfig and TestConfig.
type Config = core.Config

// Option mutates a Config during construction; see New.
type Option = core.Option

// DefaultConfig is the 1/500-scale, 90-day harness configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// TestConfig is a small configuration suitable for quick runs and tests.
func TestConfig() Config { return core.TestConfig() }

// New returns DefaultConfig with the options applied:
//
//	cfg := footsteps.New(footsteps.WithDays(30))
func New(opts ...Option) Config { return core.New(opts...) }

// NewTest returns TestConfig with the options applied.
func NewTest(opts ...Option) Config { return core.NewTest(opts...) }

// Functional options for New/NewTest, re-exported from the study core
// and grouped by concern.

// Experiment shape: what is simulated and for how long.
var (
	// WithSeed sets the RNG seed every stream derives from.
	WithSeed = core.WithSeed
	// WithScale sets the customer-dynamics scale versus the paper.
	WithScale = core.WithScale
	// WithDays sets the measurement window length.
	WithDays = core.WithDays
	// WithGraphWrites materializes real follow/like edges (honeypot and
	// graph-detection studies need it; characterization does not).
	WithGraphWrites = core.WithGraphWrites
	// WithOrganicPopulation sizes the organic account population.
	WithOrganicPopulation = core.WithOrganicPopulation
	// WithPoolSize sizes the reciprocity-service account pools.
	WithPoolSize = core.WithPoolSize
	// WithVPNUsers sets how many organic users share VPN egress IPs.
	WithVPNUsers = core.WithVPNUsers
	// WithIPDailyBudget caps per-IP daily actions before IP defenses fire.
	WithIPDailyBudget = core.WithIPDailyBudget
)

// Execution: how the deterministic timeline is driven. It changes no
// output, only memory churn.
var (
	// WithScratchReuse toggles cross-tick planning scratch reuse.
	WithScratchReuse = core.WithScratchReuse
)

// Observation: pure observers of the run (metrics, traces, faults).
var (
	// WithTelemetry attaches a metric registry (see docs/OBSERVABILITY.md).
	WithTelemetry = core.WithTelemetry
	// WithTrace attaches a deterministic FTRC1 span tracer.
	WithTrace = core.WithTrace
	// WithFaults enables a built-in fault scenario by name.
	WithFaults = core.WithFaults
	// WithFaultProfile enables a custom fault profile.
	WithFaultProfile = core.WithFaultProfile
)

// Durability: checkpoint artifacts for crash recovery and replay.
var (
	// WithCheckpointEvery sets the FSNAP1 checkpoint cadence in days.
	WithCheckpointEvery = core.WithCheckpointEvery
	// WithCheckpointDir sets where checkpoints are written.
	WithCheckpointDir = core.WithCheckpointDir
)

// Serving: the HTTP/WS /v1 front end (see docs/API.md). The world loop
// stays single-writer; handlers only validate and enqueue.
var (
	// WithServer sets the listen address for footsteps/internal/server.
	WithServer = core.WithServer
	// WithServeQueueDepth bounds the ingress queue; beyond it requests
	// shed with the "overloaded" error code.
	WithServeQueueDepth = core.WithServeQueueDepth
	// WithServePace sets sim-seconds advanced per wall-second.
	WithServePace = core.WithServePace
	// WithServeMaxBatch caps envelopes applied per world-loop drain.
	WithServeMaxBatch = core.WithServeMaxBatch
	// WithServeIngressLog records every admitted envelope batch to a
	// FING1 log that `footsteps replay -ingress-log` re-drives.
	WithServeIngressLog = core.WithServeIngressLog
)

// Result types, re-exported from the study core.
type (
	// Table5 is the reciprocation measurement (§4.3).
	Table5 = core.Table5
	// Table5Cell is one service × account-kind × action cell.
	Table5Cell = core.Table5Cell
	// BusinessResults carries Tables 6–11 and Figures 2–4 (§5).
	BusinessResults = core.BusinessResults
	// InterventionResults carries Figures 5–7 (§6).
	InterventionResults = core.InterventionResults
	// AdaptationResults carries the §6.4 epilogue measurements.
	AdaptationResults = core.AdaptationResults
	// EngagementResults carries the §2 engagement-rate uplift study.
	EngagementResults = core.EngagementResults
	// GraphDetectionResults compares the graph baseline to signals.
	GraphDetectionResults = core.GraphDetectionResults
	// Replication holds a metric set measured across independent seeds.
	Replication = core.Replication
	// Finding is one calibration check against the paper's results.
	Finding = core.Finding
)

// Wire protocol surface, re-exported from the internal wire package so
// external clients of the /v1 HTTP/WS API (see docs/API.md) never import
// internal/... paths.
type (
	// Request is the versioned /v1 request envelope.
	Request = wire.Request
	// Outcome is the /v1 response envelope.
	Outcome = wire.Outcome
	// Event is the wire form of one platform event, as streamed over
	// the /v1/events WebSocket.
	Event = wire.Event
	// Op names a request operation ("register", "login", "like", ...).
	Op = wire.Op
	// Status classifies an outcome ("allowed", "blocked", ...).
	Status = wire.Status
	// Code is a stable machine-readable error code.
	Code = wire.Code
	// WireError is a typed protocol error carrying a Code.
	WireError = wire.Error
)

// WireVersion is the envelope schema version this build speaks.
const WireVersion = wire.Version

// Request operations.
const (
	OpRegister = wire.OpRegister
	OpLogin    = wire.OpLogin
	OpFollow   = wire.OpFollow
	OpUnfollow = wire.OpUnfollow
	OpLike     = wire.OpLike
	OpComment  = wire.OpComment
	OpPost     = wire.OpPost
)

// Outcome statuses.
const (
	StatusAllowed     = wire.StatusAllowed
	StatusBlocked     = wire.StatusBlocked
	StatusRateLimited = wire.StatusRateLimited
	StatusFailed      = wire.StatusFailed
	StatusUnavailable = wire.StatusUnavailable
	StatusError       = wire.StatusError
)

// Error codes, grouped as in docs/API.md: envelope-level rejections
// (pure functions of the bytes), admission-control rejections, and
// state-dependent failures decided by the world.
const (
	CodeTooLarge     = wire.CodeTooLarge
	CodeMalformed    = wire.CodeMalformed
	CodeBadVersion   = wire.CodeBadVersion
	CodeUnknownOp    = wire.CodeUnknownOp
	CodeMissingField = wire.CodeMissingField
	CodeBadField     = wire.CodeBadField

	CodeOverloaded   = wire.CodeOverloaded
	CodeShuttingDown = wire.CodeShuttingDown

	CodeUsernameTaken  = wire.CodeUsernameTaken
	CodeBadCredentials = wire.CodeBadCredentials
	CodeUnknownToken   = wire.CodeUnknownToken
	CodeSessionRevoked = wire.CodeSessionRevoked
	CodeUnknownASN     = wire.CodeUnknownASN
	CodeNotFound       = wire.CodeNotFound
	CodeRateLimited    = wire.CodeRateLimited
	CodeBlocked        = wire.CodeBlocked
	CodeUnavailable    = wire.CodeUnavailable
	CodeAccountGone    = wire.CodeAccountGone
	CodeInternal       = wire.CodeInternal
)

// Study is one simulated world plus the paper's experiment drivers.
type Study struct {
	world *core.World
}

// NewStudy builds a fresh world for one experiment family.
func NewStudy(cfg Config) *Study {
	return &Study{world: core.NewWorld(cfg)}
}

// World exposes the underlying world for advanced scenarios (custom
// experiments, direct access to the platform, population, and services).
func (s *Study) World() *core.World { return s.world }

// Reciprocation runs the §4.3 honeypot experiment with emptyPer empty and
// livedPer lived-in honeypots per (service, action) cell.
func (s *Study) Reciprocation(emptyPer, livedPer int) (*Table5, error) {
	return s.world.ReciprocationStudy(emptyPer, livedPer)
}

// Business runs the §5 characterization over the configured window.
func (s *Study) Business() (*BusinessResults, error) {
	return s.world.BusinessStudy()
}

// NarrowIntervention runs §6.3: calibDays of threshold calibration, then
// weeks weeks of block/delay/control bins covering ≈10% of customers each.
func (s *Study) NarrowIntervention(calibDays, weeks int) (*InterventionResults, error) {
	return s.world.NarrowIntervention(calibDays, weeks)
}

// BroadIntervention runs §6.4: delay for switchDay days, then block, on
// 90% of accounts, for days experiment days after calibDays calibration.
func (s *Study) BroadIntervention(calibDays, days, switchDay int) (*InterventionResults, error) {
	return s.world.BroadIntervention(calibDays, days, switchDay)
}

// Adaptation runs the epilogue: broad blocking, proxy evasion, endgame.
func (s *Study) Adaptation(calibDays, phaseDays int) (*AdaptationResults, error) {
	return s.world.AdaptationStudy(calibDays, phaseDays)
}

// Engagement measures the §2 engagement-rate uplift bought from a paid
// like tier, over n treated/control account pairs for the given days.
// Requires Config.GraphWrites.
func (s *Study) Engagement(n, days int) (*EngagementResults, error) {
	return s.world.EngagementStudy(n, days)
}

// GraphDetection runs the FRAUDAR-baseline-vs-signals comparison.
func (s *Study) GraphDetection() (*GraphDetectionResults, error) {
	return s.world.GraphDetectionStudy()
}

// Rendering helpers producing paper-style text tables.
var (
	// FormatTable1 renders the offerings matrix (static catalog data).
	FormatTable1 = core.FormatTable1
	// FormatTable2 renders reciprocity pricing.
	FormatTable2 = core.FormatTable2
	// FormatTable3 renders Hublaagram pricing.
	FormatTable3 = core.FormatTable3
	// FormatTable4 renders Followersgratis pricing.
	FormatTable4 = core.FormatTable4
	// FormatTable5 renders a measured reciprocation table.
	FormatTable5 = core.FormatTable5
	// FormatBusiness renders Tables 6–11 and Figure 2–4 summaries.
	FormatBusiness = core.FormatBusiness
	// FormatIntervention renders Figures 5–7 day series.
	FormatIntervention = core.FormatIntervention
	// FormatRevenueSummary prints the combined monthly revenue headline.
	FormatRevenueSummary = core.FormatRevenueSummary

	// ExportBusiness writes Tables 6–11 and Figures 2–4 as TSV files.
	ExportBusiness = core.ExportBusiness
	// ExportIntervention writes Figures 5–7 day series as TSV files.
	ExportIntervention = core.ExportIntervention

	// CheckTable5 and CheckBusiness machine-verify measured results
	// against the paper's published bands; FormatFindings renders the
	// report. The `footsteps check` command wraps all three.
	CheckTable5    = core.CheckTable5
	CheckBusiness  = core.CheckBusiness
	FormatFindings = core.FormatFindings
)
