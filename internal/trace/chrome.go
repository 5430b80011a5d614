package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// chromePID groups spans into Chrome trace-event "processes" by kind,
// so the viewer lays requests, stepping sections, and instants on
// separate tracks.
func chromePID(k Kind) int {
	switch k {
	case KindSection, KindPlan:
		return 1 // stepping engine
	case KindRetry, KindBreaker:
		return 2 // AAS resilience
	case KindEnforcement:
		return 3 // interventions
	default:
		return 0 // request pipeline
	}
}

// ExportChrome renders an FTRC1 stream as Chrome trace-event JSON
// (the "X" complete-event form), loadable in about:tracing or Perfetto.
// Request spans expand into one slice per pipeline stage stacked under
// the request slice; timestamps are microseconds of wall time since
// tracer start, tracks (tid) are the spans' Shard field.
//
// Each event is formatted into one reused buffer with strconv's
// appenders, which write what fmt's %q and %d would, and appendMicros,
// which writes what %.3f would; a span's name comes from a small set
// and is built once per distinct name.
func ExportChrome(w io.Writer, r *Reader) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	type nameKey struct {
		kind         Kind
		action, code uint8
	}
	names := make(map[nameKey]string)
	var b []byte
	// event appends one event up to the opening of its args object.
	event := func(b []byte, name string, pid, tid int, tsNs, durNs int64) []byte {
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, name)
		b = append(b, `,"ph":"X","pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"ts":`...)
		b = appendMicros(b, tsNs)
		b = append(b, `,"dur":`...)
		b = appendMicros(b, durNs)
		return append(b, `,"cat":"footsteps","args":{`...)
	}
	for first := true; ; first = false {
		sp, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		pid := chromePID(sp.Kind)
		tid := int(sp.Shard)
		dur := sp.Wall
		if dur <= 0 {
			dur = 1 // instants still need visible width in the viewer
		}
		key := nameKey{kind: sp.Kind}
		switch sp.Kind {
		case KindRequest, KindLogin:
			key.action, key.code = sp.Action, sp.Code
		case KindSection, KindPlan:
		default:
			key.code = sp.Code
		}
		name, ok := names[key]
		if !ok {
			name = chromeName(sp)
			names[key] = name
		}
		b = b[:0]
		if !first {
			b = append(b, ',')
		}
		b = event(b, name, pid, tid, sp.Start, dur)
		b = append(b, `"tick":`...)
		b = strconv.AppendInt(b, sp.Tick, 10)
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, uint64(sp.Seq), 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, sp.ID(), 10)
		b = append(b, `,"actor":`...)
		b = strconv.AppendUint(b, sp.Actor, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, sp.Value, 10)
		if sp.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, sp.Parent, 10)
		}
		b = append(b, "}}"...)
		// Stage sub-slices: laid end to end inside the request span, each
		// as wide as its measured delta.
		ts := sp.Start
		for _, st := range sp.Stages {
			sd := st.Ns
			if sd <= 0 {
				sd = 1
			}
			b = append(b, ',')
			b = event(b, st.Stage.String(), pid, tid, ts, sd)
			b = append(b, `"verdict":`...)
			b = strconv.AppendQuote(b, VerdictName(st.Verdict))
			b = append(b, "}}"...)
			ts += st.Ns
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeName is the event name of span sp.
func chromeName(sp *Span) string {
	switch sp.Kind {
	case KindRequest, KindLogin:
		return fmt.Sprintf("%s %s→%s", sp.Kind, ActionName(sp.Action), OutcomeName(sp.Code))
	case KindSection:
		return "tick section"
	case KindPlan:
		return "plan"
	default:
		return fmt.Sprintf("%s %s", sp.Kind, VerdictName(sp.Code))
	}
}

// appendMicros appends ns nanoseconds as microseconds with three
// decimals, the bytes %.3f prints for float64(ns)/1e3. Below 2^52 in
// magnitude the quotient is within 2^-11 of ns/1000, so %.3f prints
// ns/1000 exactly and integer arithmetic writes it without the slow
// fixed-precision float path; larger values take that path.
func appendMicros(b []byte, ns int64) []byte {
	const exact = 1 << 52
	if ns <= -exact || ns >= exact {
		return strconv.AppendFloat(b, float64(ns)/1e3, 'f', 3, 64)
	}
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
