package trace

import (
	"bufio"
	"fmt"
	"io"
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
func ExportChrome(w io.Writer, r *Reader) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(name string, pid, tid int, tsNs, durNs int64, args string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"cat":"footsteps"`,
			name, pid, tid, float64(tsNs)/1e3, float64(durNs)/1e3)
		if args != "" {
			bw.WriteString(`,"args":{`)
			bw.WriteString(args)
			bw.WriteByte('}')
		}
		bw.WriteByte('}')
	}
	for {
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
		var name string
		switch sp.Kind {
		case KindRequest, KindLogin:
			name = fmt.Sprintf("%s %s→%s", sp.Kind, ActionName(sp.Action), OutcomeName(sp.Code))
		case KindSection:
			name = "tick section"
		case KindPlan:
			name = "plan"
		default:
			name = fmt.Sprintf("%s %s", sp.Kind, VerdictName(sp.Code))
		}
		args := fmt.Sprintf(`"tick":%d,"seq":%d,"id":%d,"actor":%d,"value":%d`,
			sp.Tick, sp.Seq, sp.ID(), sp.Actor, sp.Value)
		if sp.Parent != 0 {
			args += fmt.Sprintf(`,"parent":%d`, sp.Parent)
		}
		emit(name, pid, tid, sp.Start, dur, args)
		// Stage sub-slices: laid end to end inside the request span, each
		// as wide as its measured delta.
		ts := sp.Start
		for _, st := range sp.Stages {
			sd := st.Ns
			if sd <= 0 {
				sd = 1
			}
			emit(st.Stage.String(), pid, tid, ts, sd,
				fmt.Sprintf(`"verdict":%q`, VerdictName(st.Verdict)))
			ts += st.Ns
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
