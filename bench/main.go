// Command bench is the repository benchmark: it runs one workload for a
// fixed time, checks the program's outputs, and prints every end-to-end
// metric (or, with -trace 1, every per-layer metric) as "name value unit"
// lines followed by one JSON result line. See README.md.
//
// Usage, from the repository root:
//
//	sh bench/run.sh --workload business30 --seed 1 --seconds 25 --trace 0
//
// run.sh builds this command and the footsteps binary into .bench_build/
// and runs it. The benchmark measures each layer from outside: it times
// its own calls into the program's public functions, drives a `footsteps
// serve` subprocess over HTTP, and decodes the FTRC1 spans the program
// already emits. It adds no instrumentation to the program. Times are
// reported divided by the host's slowdown during the run, which the
// yardstick (yardstick.go) measures between repetitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"footsteps/bench/stat"
)

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract and mirror BENCHMARK.json (TestMetricTables
// keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"recovery_s", "s"},
	{"latency_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"step.plan_pct", "%"},
	{"step.apply_self_pct", "%"},
	{"step.intents", "count"},
	{"platform.preflight_pct", "%"},
	{"platform.session_pct", "%"},
	{"platform.faults_pct", "%"},
	{"platform.ratelimit_pct", "%"},
	{"platform.gatekeep_pct", "%"},
	{"platform.apply_pct", "%"},
	{"platform.telemetry_pct", "%"},
	{"platform.emit_pct", "%"},
	{"platform.requests", "count"},
	{"platform.allowed_ratio", "ratio"},
	{"core.other_pct", "%"},
	{"core.restore_pct", "%"},
	{"aas.retries", "count"},
	{"aas.breaker_transitions", "count"},
	{"durable.append_pct", "%"},
	{"durable.sync_pct", "%"},
	{"durable.resume_pct", "%"},
	{"durable.segment_mib", "MiB"},
	{"durable.discarded_events", "count"},
	{"persistence.encode_pct", "%"},
	{"persistence.snapshot_mib", "MiB"},
	{"server.enqueue_wait_pct", "%"},
	{"server.handler_pct", "%"},
	{"server.envelopes_per_drain", "count"},
	{"server.overloaded", "count"},
	{"serve.tail_ratio", "ratio"},
	{"serve.ratelimited_ratio", "ratio"},
	{"serve.late_ratio", "ratio"},
	{"wire.decode_pct", "%"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.live_heap_mib", "MiB"},
	{"runtime.bytes_per_account", "B"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"sim.events", "count"},
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	smoke     bool
	footsteps string
	out       string
	rev       string
	scratch   string // parent of the run's scratch directory
}

// run is one benchmark invocation: its options, the samples it has
// gathered, and the outcome of its correctness checks.
type run struct {
	opt     options
	window  time.Duration        // measurement window (-seconds)
	dir     string               // scratch directory inside the checkout, removed at exit
	samples map[string][]float64 // as measured; record divides times by the host's slowdown
	layers  map[string]float64
	yard    yardstick

	attempted int
	failed    int
	checks    []string // failed correctness checks
}

func (r *run) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// check records a failed correctness check; it returns ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
	return ok
}

// minReps is the fewest repetitions a run's medians rest on.
const minReps = 3

// repeatFor calls rep until window has closed and it has run at least
// atLeast times, measuring the host's speed after each repetition. rep
// reports how many operations it attempted and how many of those failed.
func (r *run) repeatFor(window time.Duration, atLeast int, rep func(i int) (attempted, failed int, err error)) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < window; i++ {
		t := time.Now()
		attempted, failed, err := rep(i)
		if err != nil {
			return err
		}
		r.attempted += attempted
		r.failed += failed
		d := time.Since(t)
		runtime.GC() // no collection of the repetition's garbage runs beside the kernel
		r.yard.measure(time.Duration(yardShare * float64(d)))
	}
	return nil
}

var workloads = map[string]func(*run) error{
	"business30":    runBusiness,
	"durable-graph": runDurableGraph,
	"scale100k":     runScale,
	"serve-open":    runServeOpen,
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", 0, "measurement window in seconds (required; BENCHMARK.json's run_seconds)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = add one traced repetition and report per-layer metrics")
	flag.BoolVar(&opt.smoke, "smoke", false, "shrink every workload to a seconds-long smoke run")
	flag.StringVar(&opt.footsteps, "footsteps", ".bench_build/bin/footsteps", "footsteps binary for serve-open")
	flag.StringVar(&opt.out, "out", "", "append the run's full record (provenance, samples, host slowdown) to this JSONL file")
	flag.StringVar(&opt.rev, "rev", "unknown", "source revision recorded with -out")
	flag.Parse()
	opt.trace = traceFlag != 0
	opt.scratch = ".bench_build"

	res, err := execute(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := emit(res, opt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and returns its record.
func execute(opt options) (*stat.Record, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds < 1 {
		return nil, fmt.Errorf("-seconds is required and must be at least 1")
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	r := &run{
		opt:     opt,
		window:  time.Duration(opt.seconds) * time.Second,
		dir:     abs,
		samples: make(map[string][]float64),
		layers:  make(map[string]float64),
	}
	for _, m := range perLayer {
		r.layers[m.name] = 0
	}
	r.yard.measure(0)
	if err := fn(r); err != nil {
		return nil, err
	}
	return r.record()
}

// record assembles the run's result; every metric of the reported table
// must have been measured.
func (r *run) record() (*stat.Record, error) {
	rec := &stat.Record{
		Workload:  r.opt.workload,
		Seed:      r.opt.seed,
		Trace:     r.opt.trace,
		Seconds:   r.opt.seconds,
		Rev:       r.opt.rev,
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Checks:    r.checks,
		Metrics:   make(map[string]stat.Summary),
		Slowdown:  r.yard.slowdown(),
		Yardstick: stat.Summarize("ms", r.yard.ms),
	}
	if rec.Attempted < 1 {
		return nil, errors.New("workload attempted nothing")
	}
	if r.opt.trace {
		for _, m := range perLayer {
			rec.Metrics[m.name] = stat.Summary{Value: r.layers[m.name], Unit: m.unit, N: 1}
		}
		return rec, nil
	}
	for _, m := range endToEnd {
		xs := r.samples[m.name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("workload %s measured no %s", r.opt.workload, m.name)
		}
		if m.unit == "s" || m.unit == "ms" {
			xs = slices.Clone(xs)
			for i := range xs {
				xs[i] /= rec.Slowdown
			}
		}
		rec.Metrics[m.name] = stat.Summarize(m.unit, xs)
	}
	return rec, nil
}

// emit prints the metric lines and the final JSON result, and appends
// the full record to -out.
func emit(rec *stat.Record, opt options) error {
	table := endToEnd
	if opt.trace {
		table = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]metric)}
	for _, m := range table {
		s := rec.Metrics[m.name]
		if opt.trace {
			fmt.Printf("%-28s %14.6g %s\n", m.name, s.Value, m.unit)
		} else {
			fmt.Printf("%-28s %14.6g %s  (q1 %.6g, q3 %.6g, n %d)\n", m.name, s.Value, m.unit, s.Q1, s.Q3, s.N)
		}
		out.Metrics[m.name] = metric{s.Value, m.unit}
	}
	if !opt.trace {
		y := rec.Yardstick
		fmt.Fprintf(os.Stderr, "bench: yardstick %.4g ms (q1 %.4g, q3 %.4g, n %d): times divided by a host slowdown of %.3f\n",
			y.Value, y.Q1, y.Q3, y.N, rec.Slowdown)
	}
	for _, c := range rec.Checks {
		fmt.Fprintln(os.Stderr, "bench: check failed:", c)
	}
	if opt.out != "" {
		rec.Host = hostInfo()
		if err := appendJSONLine(opt.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo is the provenance recorded with -out.
func hostInfo() stat.Host {
	h := stat.Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resetPeakRSS restarts this process's peak resident set size from its
// current one (Linux 4.0 and later), so the next peak is one
// repetition's own.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func secs(d time.Duration) float64   { return d.Seconds() }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// pct is part as a percentage of whole.
func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}
