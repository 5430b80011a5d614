package netsim

import "time"

// HealthWindow is one interval of degraded availability for an ASN:
// during [From, Until), only an Availability fraction of requests
// originating from the ASN succeed. Availability 0 is a full outage.
type HealthWindow struct {
	ASN          ASN
	From, Until  time.Time
	Availability float64 // fraction of requests served, clamped to [0, 1]
}

// HealthSchedule is a static per-ASN availability timetable. It is
// immutable after construction, so concurrent reads need no lock.
type HealthSchedule struct {
	windows []HealthWindow
}

// NewHealthSchedule builds a schedule from the given windows,
// clamping each availability into [0, 1].
func NewHealthSchedule(ws ...HealthWindow) *HealthSchedule {
	cp := make([]HealthWindow, len(ws))
	copy(cp, ws)
	for i := range cp {
		if cp[i].Availability < 0 {
			cp[i].Availability = 0
		} else if cp[i].Availability > 1 {
			cp[i].Availability = 1
		}
	}
	return &HealthSchedule{windows: cp}
}

// Windows returns a copy of the schedule's windows.
func (h *HealthSchedule) Windows() []HealthWindow {
	if h == nil {
		return nil
	}
	return append([]HealthWindow(nil), h.windows...)
}

// Availability returns the fraction of asn's requests served at the
// given instant: 1.0 outside every window, and the minimum across
// overlapping active windows otherwise.
func (h *HealthSchedule) Availability(asn ASN, at time.Time) float64 {
	avail := 1.0
	if h == nil {
		return avail
	}
	for _, w := range h.windows {
		if w.ASN != asn || at.Before(w.From) || !at.Before(w.Until) {
			continue
		}
		if w.Availability < avail {
			avail = w.Availability
		}
	}
	return avail
}

// SetHealth installs an availability schedule for the registry's ASNs.
// A nil schedule restores full health.
func (r *Registry) SetHealth(h *HealthSchedule) {
	r.health = h
}

// Availability reports the fraction of asn's requests the network
// serves at the given instant (1.0 without a health schedule).
func (r *Registry) Availability(asn ASN, at time.Time) float64 {
	return r.health.Availability(asn, at)
}
