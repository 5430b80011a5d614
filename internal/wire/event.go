package wire

import (
	"strconv"

	"footsteps/internal/platform"
)

// Event is the JSON mirror of platform.Event that the WS event stream
// carries. Enums travel as their frozen wire strings, times as
// nanoseconds since the Unix epoch (simulated time), addresses as text.
type Event struct {
	Seq         uint64   `json:"seq"`
	TimeNanos   int64    `json:"t"`
	Action      string   `json:"action"`
	Actor       uint64   `json:"actor"`
	Target      uint64   `json:"target,omitempty"`
	Post        uint64   `json:"post,omitempty"`
	IP          string   `json:"ip,omitempty"`
	ASN         uint32   `json:"asn,omitempty"`
	Client      string   `json:"client,omitempty"`
	API         string   `json:"api"`
	Outcome     Status   `json:"outcome"`
	Enforcement bool     `json:"enforcement,omitempty"`
	Duplicate   bool     `json:"duplicate,omitempty"`
	_           struct{} // force keyed literals so schema growth is explicit
}

// EventFrom converts a platform event to its wire mirror.
func EventFrom(ev platform.Event) Event {
	out := Event{
		Seq:         ev.Seq,
		TimeNanos:   ev.Time.UnixNano(),
		Action:      ev.Type.String(),
		Actor:       uint64(ev.Actor),
		Target:      uint64(ev.Target),
		Post:        uint64(ev.Post),
		ASN:         uint32(ev.ASN),
		Client:      ev.Client,
		API:         ev.API.String(),
		Outcome:     StatusFor(ev.Outcome),
		Enforcement: ev.Enforcement,
		Duplicate:   ev.Duplicate,
	}
	if ev.IP.IsValid() {
		out.IP = ev.IP.String()
	}
	return out
}

// AppendEventJSON appends the event's JSON encoding to dst and returns
// the extended slice. It is a hand-rolled fast path for the WS event
// broadcaster, which may serialize tens of thousands of events per wall
// second: no reflection, one allocation at most (the slice growth).
// The bytes equal json.Marshal(ev): strings go through the same escaper
// as AppendOutcomeJSON, so a client fingerprint holding control bytes,
// <, >, & or invalid UTF-8 still yields valid, identical JSON.
// FuzzAppendEventJSONMatchesJSON holds that equivalence.
func AppendEventJSON(dst []byte, ev Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, ev.TimeNanos, 10)
	dst = append(dst, `,"action":`...)
	dst = appendJSONString(dst, ev.Action)
	dst = append(dst, `,"actor":`...)
	dst = strconv.AppendUint(dst, ev.Actor, 10)
	if ev.Target != 0 {
		dst = append(dst, `,"target":`...)
		dst = strconv.AppendUint(dst, ev.Target, 10)
	}
	if ev.Post != 0 {
		dst = append(dst, `,"post":`...)
		dst = strconv.AppendUint(dst, ev.Post, 10)
	}
	if ev.IP != "" {
		dst = append(dst, `,"ip":`...)
		dst = appendJSONString(dst, ev.IP)
	}
	if ev.ASN != 0 {
		dst = append(dst, `,"asn":`...)
		dst = strconv.AppendUint(dst, uint64(ev.ASN), 10)
	}
	if ev.Client != "" {
		dst = append(dst, `,"client":`...)
		dst = appendJSONString(dst, ev.Client)
	}
	dst = append(dst, `,"api":`...)
	dst = appendJSONString(dst, ev.API)
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, string(ev.Outcome))
	if ev.Enforcement {
		dst = append(dst, `,"enforcement":true`...)
	}
	if ev.Duplicate {
		dst = append(dst, `,"duplicate":true`...)
	}
	return append(dst, '}')
}
