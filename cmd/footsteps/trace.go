package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"footsteps/internal/trace"
)

// runTrace is the `footsteps trace` subcommand: the inspector for FTRC1
// span streams recorded with -trace.
//
//	footsteps trace -stats run.ftrc                 aggregate latency/verdict tables
//	footsteps trace -grep action=follow,outcome=blocked run.ftrc
//	footsteps trace -export chrome -o t.json run.ftrc
//
// With no mode flag, -stats is implied. -grep prints matching spans one
// per line; its spec is comma-separated key=value pairs over actor,
// action, outcome, day, and kind (names or numeric codes). It returns
// the exit code.
func (c *cli) runTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	stats := fs.Bool("stats", false, "print aggregate stage-latency and verdict tables (default mode)")
	grep := fs.String("grep", "", "print spans matching `spec` (e.g. action=follow,outcome=blocked,day=3)")
	export := fs.String("export", "", "export format: chrome (chrome://tracing / Perfetto JSON)")
	out := fs.String("o", "", "output file for -export (default stdout)")
	limit := fs.Int("n", 0, "stop -grep after this many spans (0 = all)")
	fs.Usage = func() {
		fmt.Fprintln(c.stderr, "usage: footsteps trace [-stats] [-grep spec] [-export chrome] [-o file] <trace.ftrc>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return c.exit(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return c.exit(err)
	}

	switch {
	case *export != "":
		return c.exit(c.exportTrace(r, *export, *out))
	case *grep != "":
		filter, err := parseTraceFilter(*grep)
		if err != nil {
			return c.exit(err)
		}
		return c.exit(c.grepTrace(r, filter, *limit))
	default:
		_ = *stats // -stats is the default mode
		st := trace.NewStats()
		if err := st.ObserveAll(r); err != nil {
			return c.exit(err)
		}
		fmt.Fprintf(c.stdout, "Trace: %d spans (seed %d, sample 1/%d)\n\n", r.Spans(), r.Seed(), r.SampleN())
		fmt.Fprint(c.stdout, st.Format())
		return 0
	}
}

// exportTrace writes the trace in the given format to the file out, or
// to stdout when out is empty.
func (c *cli) exportTrace(r *trace.Reader, format, out string) error {
	if format != "chrome" {
		return fmt.Errorf("trace: unknown export format %q (want chrome)", format)
	}
	dst := c.stdout
	if out != "" {
		g, err := os.Create(out)
		if err != nil {
			return err
		}
		defer g.Close()
		dst = g
	}
	w := bufio.NewWriter(dst)
	if err := trace.ExportChrome(w, r); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(c.stdout, "Chrome trace: %d spans written to %s\n", r.Spans(), out)
	}
	return nil
}

// parseTraceFilter parses a -grep spec: comma-separated key=value pairs.
// Values accept the enum names printed by the inspector itself, or raw
// numeric codes.
func parseTraceFilter(spec string) (trace.Filter, error) {
	f := trace.MatchAll
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return f, fmt.Errorf("trace: bad -grep term %q (want key=value)", part)
		}
		switch key {
		case "actor":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return f, fmt.Errorf("trace: bad actor %q: %v", val, err)
			}
			f.Actor = n
		case "day":
			n, err := strconv.Atoi(val)
			if err != nil {
				return f, fmt.Errorf("trace: bad day %q: %v", val, err)
			}
			f.Day = n
		case "action":
			n, err := enumCode(val, 6, func(c uint8) string { return trace.ActionName(c) })
			if err != nil {
				return f, err
			}
			f.Action = n
		case "outcome":
			n, err := enumCode(val, 5, func(c uint8) string { return trace.OutcomeName(c) })
			if err != nil {
				return f, err
			}
			f.Outcome = n
		case "kind":
			n, err := enumCode(val, 7, func(c uint8) string { return trace.Kind(c).String() })
			if err != nil {
				return f, err
			}
			f.Kind = n
		default:
			return f, fmt.Errorf("trace: unknown -grep key %q (want actor, action, outcome, day, kind)", key)
		}
	}
	return f, nil
}

// enumCode resolves an enum value given by name (matching the package's
// own renderers) or by numeric code.
func enumCode(val string, count int, name func(uint8) string) (int, error) {
	for c := 0; c < count; c++ {
		if name(uint8(c)) == val {
			return c, nil
		}
	}
	if n, err := strconv.Atoi(val); err == nil && n >= 0 {
		return n, nil
	}
	return 0, fmt.Errorf("trace: unknown value %q", val)
}

// grepTrace streams the trace and prints matching spans, one per line.
func (c *cli) grepTrace(r *trace.Reader, f trace.Filter, limit int) error {
	w := bufio.NewWriter(c.stdout)
	defer w.Flush()
	shown := 0
	for {
		sp, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if !f.Match(sp) {
			continue
		}
		printSpan(w, sp)
		shown++
		if limit > 0 && shown >= limit {
			break
		}
	}
	fmt.Fprintf(w, "%d of %d spans matched\n", shown, r.Spans())
	return nil
}

// printSpan renders one span as a grep-friendly line: identity first,
// then the kind-specific payload, then the stage timeline.
func printSpan(w *bufio.Writer, sp *trace.Span) {
	fmt.Fprintf(w, "day=%d tick=%d shard=%d seq=%d id=%016x %s",
		sp.Day(), sp.Tick, sp.Shard, sp.Seq, sp.ID(), sp.Kind)
	switch sp.Kind {
	case trace.KindRequest, trace.KindLogin:
		fmt.Fprintf(w, " actor=%d action=%s outcome=%s", sp.Actor, trace.ActionName(sp.Action), trace.OutcomeName(sp.Code))
		if sp.Target != 0 {
			fmt.Fprintf(w, " target=%d", sp.Target)
		}
		if sp.ASN != 0 {
			fmt.Fprintf(w, " asn=%d", sp.ASN)
		}
	case trace.KindSection:
		fmt.Fprintf(w, " applied=%d", sp.Value)
	case trace.KindPlan:
		fmt.Fprintf(w, " intents=%d", sp.Value)
	case trace.KindRetry:
		fmt.Fprintf(w, " actor=%d action=%s attempt=%d delay=%s", sp.Actor, trace.ActionName(sp.Action), sp.Code, fmtDelay(sp.Value))
	case trace.KindBreaker:
		fmt.Fprintf(w, " actor=%d transition=%s", sp.Actor, breakerName(sp.Code))
	case trace.KindEnforcement:
		fmt.Fprintf(w, " actor=%d action=%s decision=%s count=%d", sp.Actor, trace.ActionName(sp.Action), trace.VerdictName(sp.Code), sp.Value)
	}
	if sp.Parent != 0 {
		fmt.Fprintf(w, " parent=%016x", sp.Parent)
	}
	fmt.Fprintf(w, " wall=%dns", sp.Wall)
	for _, st := range sp.Stages {
		fmt.Fprintf(w, " %s=%s/%dns", st.Stage, trace.VerdictName(st.Verdict), st.Ns)
	}
	fmt.Fprintln(w)
}

func fmtDelay(ns int64) string {
	switch {
	case ns >= 60_000_000_000:
		return fmt.Sprintf("%.1fm", float64(ns)/60e9)
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.1fs", float64(ns)/1e9)
	default:
		return fmt.Sprintf("%dms", ns/1_000_000)
	}
}

func breakerName(code uint8) string {
	switch code {
	case trace.BreakerOpened:
		return "opened"
	case trace.BreakerReopened:
		return "reopened"
	default:
		return "closed"
	}
}
