// Package faults implements deterministic infrastructure fault
// injection for the simulated platform: transient unavailability,
// added request latency, session-store flaps that revoke live
// sessions, per-ASN outages, and rate-limit storms — the failure modes
// the paper's real platform exhibited while the automation services
// kept running (§6, "Following Their Footsteps").
//
// A fault run is described by a declarative Profile: a set of Windows,
// each active over a [FromDay, ToDay) interval of simulated time and
// carrying the parameters of one fault kind. Profiles load from JSON
// (-faults profile.json) or from the built-in scenarios (Scenario).
//
// Determinism is the package's defining constraint: per-request fault
// verdicts come from a pure hash of (injector seed, window, request
// identity), never from a sequential RNG, so verdicts are independent
// of call order. See docs/FAULTS.md for the full
// rules.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindUnavailable makes individual requests fail with a transient
	// 5xx-style platform.ErrUnavailable.
	KindUnavailable Kind = iota
	// KindLatency adds simulated service latency to requests. The
	// discrete-event clock means the delay is recorded (telemetry
	// histogram + FaultDecision.Latency) rather than slowing the run.
	KindLatency
	// KindSessionFlap models a flapping session store: live sessions
	// are spontaneously revoked, forcing clients to re-login.
	KindSessionFlap
	// KindASNOutage degrades availability for all traffic from one
	// ASN, via the netsim health schedule.
	KindASNOutage
	// KindRateLimitStorm temporarily tightens per-account rate limits
	// to a fraction of their configured value.
	KindRateLimitStorm
)

var kindNames = map[Kind]string{
	KindUnavailable:    "unavailable",
	KindLatency:        "latency",
	KindSessionFlap:    "session_flap",
	KindASNOutage:      "asn_outage",
	KindRateLimitStorm: "ratelimit_storm",
}

// String returns the JSON name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("faults: unknown kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range kindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("faults: unknown kind %q", s)
}

// Window is one scheduled fault: a kind, an active interval in days
// since the simulation epoch, and the kind's parameters. Unused
// parameter fields are ignored for other kinds.
type Window struct {
	Kind Kind `json:"kind"`
	// FromDay and ToDay bound the active interval [FromDay, ToDay) in
	// fractional days since clock.Epoch.
	FromDay float64 `json:"from_day"`
	ToDay   float64 `json:"to_day"`
	// Probability is the per-request fault chance for unavailable,
	// latency, and session_flap windows, in [0, 1].
	Probability float64 `json:"probability,omitempty"`
	// LatencyMS is the added latency for latency windows.
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// ASN and Availability configure asn_outage windows: the fraction
	// of requests from ASN that still succeed, in [0, 1).
	ASN          netsim.ASN `json:"asn,omitempty"`
	Availability float64    `json:"availability,omitempty"`
	// LimitScale multiplies hourly rate limits during ratelimit_storm
	// windows, in (0, 1).
	LimitScale float64 `json:"limit_scale,omitempty"`
}

// From returns the window's opening instant.
func (w Window) From() time.Time { return clock.Epoch.Add(dayDur(w.FromDay)) }

// Until returns the window's closing instant (exclusive).
func (w Window) Until() time.Time { return clock.Epoch.Add(dayDur(w.ToDay)) }

// active reports whether the window covers the given fractional day.
func (w Window) active(day float64) bool { return day >= w.FromDay && day < w.ToDay }

func dayDur(days float64) time.Duration {
	return time.Duration(days * float64(24*time.Hour))
}

// latency returns the window's added latency as a duration.
func (w Window) latency() time.Duration { return time.Duration(w.LatencyMS) * time.Millisecond }

// validate checks one window's parameters.
func (w Window) validate(i int) error {
	if w.ToDay <= w.FromDay {
		return fmt.Errorf("faults: window %d: to_day %g must exceed from_day %g", i, w.ToDay, w.FromDay)
	}
	switch w.Kind {
	case KindUnavailable, KindSessionFlap:
		if w.Probability <= 0 || w.Probability > 1 {
			return fmt.Errorf("faults: window %d (%s): probability %g outside (0, 1]", i, w.Kind, w.Probability)
		}
	case KindLatency:
		if w.Probability <= 0 || w.Probability > 1 {
			return fmt.Errorf("faults: window %d (%s): probability %g outside (0, 1]", i, w.Kind, w.Probability)
		}
		if w.LatencyMS <= 0 {
			return fmt.Errorf("faults: window %d (latency): latency_ms %d must be positive", i, w.LatencyMS)
		}
	case KindASNOutage:
		if w.ASN == 0 {
			return fmt.Errorf("faults: window %d (asn_outage): asn required", i)
		}
		if w.Availability < 0 || w.Availability >= 1 {
			return fmt.Errorf("faults: window %d (asn_outage): availability %g outside [0, 1)", i, w.Availability)
		}
	case KindRateLimitStorm:
		if w.LimitScale <= 0 || w.LimitScale >= 1 {
			return fmt.Errorf("faults: window %d (ratelimit_storm): limit_scale %g outside (0, 1)", i, w.LimitScale)
		}
	default:
		return fmt.Errorf("faults: window %d: unknown kind %d", i, int(w.Kind))
	}
	return nil
}

// Profile is a named, declarative fault schedule.
type Profile struct {
	Name    string   `json:"name"`
	Windows []Window `json:"windows"`
}

// Validate checks every window; a nil profile is valid (faults off).
func (p *Profile) Validate() error {
	if p == nil {
		return nil
	}
	for i, w := range p.Windows {
		if err := w.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Parse decodes and validates a JSON profile.
func Parse(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: parse profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and validates a JSON profile from a file.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: load profile: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	if p.Name == "" {
		p.Name = path
	}
	return p, nil
}

// HealthSchedule compiles the profile's asn_outage windows into a
// netsim health schedule (nil when the profile has none).
func (p *Profile) HealthSchedule() *netsim.HealthSchedule {
	if p == nil {
		return nil
	}
	var ws []netsim.HealthWindow
	for _, w := range p.Windows {
		if w.Kind != KindASNOutage {
			continue
		}
		ws = append(ws, netsim.HealthWindow{
			ASN:          w.ASN,
			From:         w.From(),
			Until:        w.Until(),
			Availability: w.Availability,
		})
	}
	if len(ws) == 0 {
		return nil
	}
	return netsim.NewHealthSchedule(ws...)
}
