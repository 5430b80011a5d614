// Command footsteps regenerates the paper's tables and figures from the
// simulated study, and records, replays, serves and traces it.
//
// Usage:
//
//	footsteps [flags] <command>
//
// `footsteps -h` prints every command and flag; testdata/usage.golden
// holds that text, and the package tests fail when it drifts from the
// code.
//
// Telemetry and tracing are pure observers: enabling -metrics,
// -debug-addr, or -trace changes neither the event stream nor any table
// (see docs/OBSERVABILITY.md).
// On SIGINT or SIGTERM, serve drains, seals its logs and exits 0. Every
// other command syncs the -metrics sink and drains the debug server,
// then exits 130 (SIGINT) or 143 (SIGTERM): interrupted runs never leave
// torn metric files, and an interrupted -trace file reads to whole spans
// and then a truncation error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"footsteps"
	"footsteps/internal/aas"
	"footsteps/internal/clock"
	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/faults"
	"footsteps/internal/server"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one invocation of the command: its output streams and the
// run-wide sinks its flags opened. The commands are its methods.
type cli struct {
	stdout, stderr io.Writer

	reg      *telemetry.Registry // nil unless -metrics, -debug-addr or -faults
	metrics  *os.File            // the -metrics JSONL sink
	debug    *telemetry.DebugServer
	tracer   *trace.Tracer
	traceOut *os.File
}

// run is the whole command: it parses args, runs one command and
// returns the process exit code, 0 on success (or -h), 2 for a command
// line it printed the usage text for, and 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("footsteps", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "RNG seed")
	scale := fs.Float64("scale", 1.0/500, "customer-dynamics scale vs the paper")
	days := fs.Int("days", 90, "measurement window in days")
	quick := fs.Bool("quick", false, "small fast configuration")
	outDir := fs.String("o", "", "directory for machine-readable TSV exports (optional)")
	record := fs.String("record", "", "write the full event stream to this FSEV1 capture file (business, record, replay)")
	checkpointDir := fs.String("checkpoint-dir", "", "write FSNAP2 world checkpoints into this directory (record only)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint cadence in days, 0 = off (record only)")
	fromSnap := fs.String("from", "", "FSNAP2 checkpoint to restore before replaying (replay only)")
	durableDir := fs.String("durable", "", "durable log directory: checksummed segments + atomic checkpoints (run only)")
	resumeFlag := fs.Bool("resume", false, "recover the -durable log after a crash and finish the run (run only)")
	crashAfterOp := fs.Uint64("crash-after-op", 0, "kill the process at this durable filesystem op, for crash-injection testing (run only)")
	fsyncEvery := fs.Bool("fsync-every", false, "fsync the durable log after every frame, not only at checkpoints (run only)")
	against := fs.String("against", "", "FSEV1 capture to verify the replayed stream against (replay only)")
	seeds := fs.Int("seeds", 5, "number of independent seeds for the sweep command")
	metricsPath := fs.String("metrics", "", "write per-day telemetry JSONL to this file")
	debugAddr := fs.String("debug-addr", "", "serve expvar metrics and pprof on this address (e.g. localhost:6060)")
	traceFile := fs.String("trace", "", "write an FTRC1 span trace to this file (inspect with `footsteps trace`)")
	traceSample := fs.String("trace-sample", "1", "span sampling rate, 1/N or N (deterministic; 1 = every span)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	faultsFlag := fs.String("faults", "",
		"fault profile: built-in scenario ("+strings.Join(faults.Scenarios(), ", ")+") or a JSON profile path")
	serveAddr := fs.String("serve-addr", "127.0.0.1:8343", "listen address for the serve command")
	servePace := fs.Float64("serve-pace", 0, "sim-seconds per wall-second while serving (0 = default 60)")
	serveQueue := fs.Int("serve-queue", 0, "ingress queue depth before requests shed as overloaded (0 = default)")
	ingressLog := fs.String("ingress-log", "", "FING1 ingress log: written by serve, re-driven by replay")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	// The trace inspector takes its own flags and a file operand, so it
	// dispatches before the single-command arity check.
	if fs.Arg(0) == "trace" {
		return c.runTrace(fs.Args()[1:])
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	var faultProfile *faults.Profile
	mkCfg := func() footsteps.Config {
		cfg := footsteps.DefaultConfig()
		if *quick {
			cfg = footsteps.TestConfig()
		}
		cfg.Seed = *seed
		cfg.Scale = *scale
		cfg.Days = *days
		cfg.Telemetry = c.reg
		cfg.Trace = c.tracer
		cfg.Faults = faultProfile
		if *quick {
			cfg.Scale = footsteps.TestConfig().Scale
			cfg.Days = footsteps.TestConfig().Days
		}
		return cfg
	}
	// sigc carries SIGINT and SIGTERM for the whole invocation: serve
	// drains on it, every other command exits on it (exitOnSignal).
	sigc := make(chan os.Signal, 1)
	commands := map[string]func() error{
		"catalog":       c.runCatalog,
		"reciprocation": func() error { return c.runReciprocation(mkCfg(), *quick) },
		"business":      func() error { return c.runBusiness(mkCfg(), *outDir, *record) },
		"narrow":        func() error { return c.runNarrow(mkCfg(), *quick, *outDir) },
		"broad":         func() error { return c.runBroad(mkCfg(), *quick, *outDir) },
		"adaptation":    func() error { return c.runAdaptation(mkCfg(), *quick) },
		"graphdetect":   func() error { return c.runGraphDetect(mkCfg()) },
		"sweep":         func() error { return c.runSweep(mkCfg(), *seeds) },
		"faults":        func() error { return c.runFaults(mkCfg()) },
		"record": func() error {
			return c.runRecord(mkCfg(), *record, *checkpointDir, *checkpointEvery)
		},
		"run": func() error {
			return c.runDurable(mkCfg(), *durableDir, *resumeFlag, *crashAfterOp, *fsyncEvery)
		},
		"serve": func() error {
			set := server.Settings{Addr: *serveAddr, QueueDepth: *serveQueue, Pace: *servePace, IngressLog: *ingressLog}
			return c.runServe(mkCfg(), set, *record, sigc)
		},
		"replay": func() error {
			if *ingressLog != "" {
				return c.runReplayIngress(mkCfg(), *ingressLog, *against, *record)
			}
			return c.runReplay(mkCfg(), *fromSnap, *against, *record)
		},
		"check": c.runCheck,
		"all":   func() error { return c.runAll(mkCfg, *quick) },
	}
	name := fs.Arg(0)
	command, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "unknown command %q\n\n", name)
		fs.Usage()
		return 2
	}

	if *faultsFlag != "" {
		p, err := loadFaultProfile(*faultsFlag)
		if err != nil {
			return c.exit(err)
		}
		faultProfile = p
	}
	// A faulted run always carries a registry so the report's
	// fault/retry/breaker section has counters behind it.
	if *metricsPath != "" || *debugAddr != "" || faultProfile != nil {
		c.reg = telemetry.NewRegistry()
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			return c.exit(err)
		}
		defer f.Close()
		c.metrics = f
	}
	if *debugAddr != "" {
		srv, err := telemetry.ServeDebug(*debugAddr, c.reg)
		if err != nil {
			return c.exit(err)
		}
		defer srv.Close()
		c.debug = srv
		fmt.Fprintf(stdout, "Debug server on http://%s (/debug/vars, /metrics.json, /debug/pprof/)\n", srv.Addr())
	}
	if *traceFile != "" {
		sampleN, err := parseSampleRate(*traceSample)
		if err != nil {
			return c.exit(err)
		}
		if err := c.startTrace(*traceFile, *seed, sampleN); err != nil {
			return c.exit(err)
		}
		defer c.traceOut.Close()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return c.exit(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.exit(err)
		}
	}
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	if name != "serve" {
		done := make(chan struct{})
		defer close(done)
		go c.exitOnSignal(sigc, done)
	}

	err := command()
	c.finishTrace(*traceFile)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(stdout, "CPU profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		if perr := writeMemProfile(*memProfile); perr != nil {
			fmt.Fprintln(stderr, "footsteps:", perr)
		} else {
			fmt.Fprintf(stdout, "Heap profile written to %s\n", *memProfile)
		}
	}
	return c.exit(err)
}

// parseExit is the exit code for a flag set that failed to parse: 0 for
// -h, 2 otherwise. The flag package has printed the usage text.
func parseExit(err error) int {
	if err == flag.ErrHelp {
		return 0
	}
	return 2
}

// exit reports err on stderr and returns the exit code for it.
func (c *cli) exit(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(c.stderr, "footsteps:", err)
	return 1
}

// exitOnSignal ends the process on the first SIGINT or SIGTERM, with the
// code a shell reports for it, unless done closes first. It touches only
// sinks that are safe from another goroutine: the -metrics file, whose
// writes are line-atomic and unbuffered, so syncing leaves no torn
// record, and the debug server, which drains with a timeout. The -trace
// writer belongs to the world goroutine and is left as the last flush
// wrote it (startTrace put the header on disk first).
func (c *cli) exitOnSignal(sigc <-chan os.Signal, done <-chan struct{}) {
	var sig os.Signal
	select {
	case <-done:
		return
	case sig = <-sigc:
	}
	fmt.Fprintf(c.stderr, "\nfootsteps: %v: flushing telemetry sinks\n", sig)
	if c.metrics != nil {
		c.metrics.Sync()
		c.metrics.Close()
	}
	if c.debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		c.debug.Shutdown(ctx)
		cancel()
	}
	code := 130
	if sig == syscall.SIGTERM {
		code = 143
	}
	os.Exit(code)
}

// telemetryAttach wires the per-day JSONL sink to a freshly built world.
func (c *cli) telemetryAttach(w *core.World) {
	if c.metrics != nil {
		w.StreamTelemetryDaily(c.metrics)
	}
}

// telemetryReport prints the end-of-run summary tables, if enabled: the
// fault/retry/breaker section (faulted runs only), then the full metric
// dump. It also finalizes the daily JSONL stream, surfacing write errors
// that the per-day flushes deliberately swallowed.
func (c *cli) telemetryReport(w *core.World) {
	if s := w.FaultSummary(); s != "" {
		fmt.Fprintln(c.stdout, s)
	}
	if s := w.TelemetrySummary(); s != "" {
		fmt.Fprintln(c.stdout, s)
	}
	if err := w.FinalizeTelemetry(); err != nil {
		fmt.Fprintf(c.stderr, "footsteps: telemetry stream incomplete: %v\n", err)
	}
}

// parseSampleRate parses the -trace-sample argument: "1/N" or a bare
// "N", both meaning one of every N candidate spans.
func parseSampleRate(arg string) (uint64, error) {
	s := strings.TrimSpace(arg)
	if rest, ok := strings.CutPrefix(s, "1/"); ok {
		s = rest
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad -trace-sample %q (want 1/N or N)", arg)
	}
	return n, nil
}

// startTrace opens the -trace stream. Its header is flushed at once, so
// a run cut short still leaves a file a trace reader accepts.
func (c *cli) startTrace(path string, seed, sampleN uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr, err := trace.New(f, seed, sampleN)
	if err == nil {
		err = tr.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	c.tracer, c.traceOut = tr, f
	return nil
}

// finishTrace flushes and syncs the -trace stream, reporting what was
// captured. Without -trace it does nothing.
func (c *cli) finishTrace(path string) {
	if c.tracer == nil {
		return
	}
	if err := c.tracer.Close(); err != nil {
		fmt.Fprintf(c.stderr, "footsteps: trace stream: %v\n", err)
	} else {
		fmt.Fprintf(c.stdout, "Trace: %d spans written to %s (sample 1/%d)\n", c.tracer.Spans(), path, c.tracer.SampleN())
	}
	c.traceOut.Sync()
}

// loadFaultProfile resolves the -faults argument: a built-in scenario
// name first, a JSON profile path otherwise.
func loadFaultProfile(arg string) (*faults.Profile, error) {
	if p, err := faults.Scenario(arg); err == nil {
		return p, nil
	}
	return faults.Load(arg)
}

// runFaults is the resilience demo: a compact faulted run (the "mixed"
// scenario unless -faults chose otherwise) followed by the injected-
// fault and client-resilience summary.
func (c *cli) runFaults(cfg footsteps.Config) error {
	if cfg.Faults == nil {
		cfg.Faults = faults.MustScenario("mixed")
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Days > 10 {
		// The built-in scenarios play out within the first five days;
		// the demo does not need a full measurement window.
		cfg.Days = 10
	}
	w := core.NewWorld(cfg)
	c.telemetryAttach(w)
	fmt.Fprintf(c.stdout, "Fault demo: profile %q over %d days (seed %d)...\n",
		cfg.Faults.Name, cfg.Days, cfg.Seed)
	w.RunAll()
	w.Sched.RunFor(time.Duration(cfg.Days) * clock.Day)
	fmt.Fprintln(c.stdout)
	fmt.Fprintln(c.stdout, w.FaultSummary())
	return nil
}

// writeMemProfile captures an end-of-run heap profile after a final GC,
// so the numbers reflect retained memory, not transient garbage.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `usage: footsteps [flags] <command>

commands:
  catalog        Tables 1-4 (static service catalog)
  reciprocation  Table 5 (honeypot reciprocation measurement)
  business       Tables 6-11, Figures 2-4 (90-day characterization)
  narrow         Figures 5-6 (narrow intervention, 6 weeks)
  broad          Figure 7 (broad intervention, 2 weeks)
  adaptation     §6.4 epilogue (proxy evasion and endgame)
  graphdetect    FRAUDAR-style graph baseline vs signal attribution
  faults         fault-injection demo: AAS resilience under infrastructure failure
  sweep          multi-seed replication of the Table 5 measurement
  record         canonical run with -record/-checkpoint-* artifacts (FSEV1 + FSNAP2)
  run            crash-tolerant run: durable segment log + atomic checkpoints (-durable, -resume)
  serve          host the world behind the HTTP/WS /v1 API (-serve-addr, -ingress-log; docs/API.md)
  replay         re-drive a checkpoint (-from) or a serve ingress log (-ingress-log), verify -against
  trace          inspect an FTRC1 span trace: -stats, -grep spec, -export chrome
  check          machine-checked calibration against the paper's bands
  all            everything, in paper order

flags:
`)
	fs.PrintDefaults()
}

func (c *cli) runCatalog() error {
	fmt.Fprintln(c.stdout, footsteps.FormatTable1())
	fmt.Fprintln(c.stdout, footsteps.FormatTable2())
	fmt.Fprintln(c.stdout, footsteps.FormatTable3())
	fmt.Fprintln(c.stdout, footsteps.FormatTable4())
	return nil
}

func (c *cli) runReciprocation(cfg footsteps.Config, quick bool) error {
	cfg.GraphWrites = true // honeypot studies need full graph fidelity
	study := footsteps.NewStudy(cfg)
	c.telemetryAttach(study.World())
	empty, lived := 9, 3
	if quick {
		empty, lived = 3, 1
	}
	fmt.Fprintf(c.stdout, "Registering %d empty + %d lived-in honeypots per (service, action) cell...\n", empty, lived)
	tbl, err := study.Reciprocation(empty, lived)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, footsteps.FormatTable5(tbl))
	c.telemetryReport(study.World())
	return nil
}

func (c *cli) runBusiness(cfg footsteps.Config, outDir, record string) error {
	study := footsteps.NewStudy(cfg)
	c.telemetryAttach(study.World())
	var capture *eventio.Writer
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		capture, err = eventio.NewWriter(f)
		if err != nil {
			return err
		}
		capture.Attach(study.World().Plat.Log())
	}
	fmt.Fprintf(c.stdout, "Running the %d-day measurement window at scale %.5f (seed %d)...\n",
		cfg.Days, cfg.Scale, cfg.Seed)
	res, err := study.Business()
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, footsteps.FormatBusiness(res))
	fmt.Fprintln(c.stdout, footsteps.FormatRevenueSummary(res))
	if capture != nil {
		if err := capture.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "Event capture: %d events written to %s\n", capture.Count(), record)
	}
	if outDir != "" {
		if err := footsteps.ExportBusiness(res, outDir); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "TSV exports written to %s\n", outDir)
	}
	c.telemetryReport(study.World())
	return nil
}

func interventionCfg(cfg footsteps.Config, days int) footsteps.Config {
	cfg.Days = days
	// Keep the heavyweight services from dwarfing the intervention run.
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	if cfg.Scale < 1.0/200 {
		cfg.Scale = 1.0 / 100
	}
	return cfg
}

func (c *cli) runNarrow(cfg footsteps.Config, quick bool, outDir string) error {
	calib, weeks := 7, 6
	if quick {
		calib, weeks = 5, 3
	}
	cfg = interventionCfg(cfg, 2+calib+weeks*7)
	study := footsteps.NewStudy(cfg)
	c.telemetryAttach(study.World())
	fmt.Fprintf(c.stdout, "Narrow intervention: %d calibration days, %d weeks of block/delay/control bins...\n", calib, weeks)
	res, err := study.NarrowIntervention(calib, weeks)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, footsteps.FormatIntervention(res))
	c.telemetryReport(study.World())
	return c.exportIntervention(res, outDir)
}

func (c *cli) exportIntervention(res *footsteps.InterventionResults, outDir string) error {
	if outDir == "" {
		return nil
	}
	if err := footsteps.ExportIntervention(res, outDir); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "TSV exports written to %s\n", outDir)
	return nil
}

func (c *cli) runBroad(cfg footsteps.Config, quick bool, outDir string) error {
	calib, days, switchDay := 7, 14, 6
	if quick {
		calib = 5
	}
	cfg = interventionCfg(cfg, 2+calib+days)
	study := footsteps.NewStudy(cfg)
	c.telemetryAttach(study.World())
	fmt.Fprintf(c.stdout, "Broad intervention: delay days 0-%d, block thereafter, 90%% of accounts...\n", switchDay-1)
	res, err := study.BroadIntervention(calib, days, switchDay)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, footsteps.FormatIntervention(res))
	c.telemetryReport(study.World())
	return c.exportIntervention(res, outDir)
}

func (c *cli) runAdaptation(cfg footsteps.Config, quick bool) error {
	calib, phase := 5, 10
	if quick {
		phase = 7
	}
	cfg = interventionCfg(cfg, 2+calib+2*phase+1)
	study := footsteps.NewStudy(cfg)
	c.telemetryAttach(study.World())
	fmt.Fprintf(c.stdout, "Adaptation study: %d-day phases of broad blocking, then proxy evasion...\n", phase)
	res, err := study.Adaptation(calib, phase)
	if err != nil {
		return err
	}

	labels := make([]string, 0, len(res.Phase1))
	for l := range res.Phase1 {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintln(c.stdout, "Like traffic before and after the proxy move:")
	fmt.Fprintf(c.stdout, "%-12s %22s %22s %10s\n", "service", "blocked% (pre)", "blocked% (post)", "proxyASNs")
	for _, l := range labels {
		fmt.Fprintf(c.stdout, "%-12s %21.1f%% %21.1f%% %10d\n",
			l, res.Phase1[l].BlockedFraction()*100, res.Phase2[l].BlockedFraction()*100,
			res.ProxyDiversity[l])
	}
	fmt.Fprintf(c.stdout, "\nEvaded traffic still attributable by client fingerprint: %v\n", res.StillAttributable)
	fmt.Fprintf(c.stdout, "Hublaagram lists all paid services out of stock: %v\n", res.HublaagramOutOfStock)
	c.telemetryReport(study.World())
	return nil
}

func (c *cli) runGraphDetect(cfg footsteps.Config) error {
	cfg.Days = 20
	if cfg.Scale < 1.0/1000 {
		cfg.Scale = 1.0 / 500
	}
	// Realistic pool sizes matter here: tiny curated pools make even
	// reciprocity traffic look dense.
	if cfg.PoolSize < 3000 {
		cfg.PoolSize = 3000
	}
	if cfg.OrganicPopulation < 3000 {
		cfg.OrganicPopulation = 3000
	}
	study := footsteps.NewStudy(cfg)
	c.telemetryAttach(study.World())
	fmt.Fprintln(c.stdout, "Running the graph-detection baseline against signal attribution...")
	res, err := study.World().GraphDetectionStudy()
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "\nDense blocks found: %d\n", len(res.Blocks))
	for i, blk := range res.Blocks {
		fmt.Fprintf(c.stdout, "  block %d: %v\n", i+1, blk)
	}
	labels := make([]string, 0, len(res.Fraudar))
	for l := range res.Fraudar {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintf(c.stdout, "\n%-12s %28s %28s\n", "service", "graph baseline (P/R)", "signal attribution (P/R)")
	for _, l := range labels {
		f, s := res.Fraudar[l], res.Signature[l]
		fmt.Fprintf(c.stdout, "%-12s %14.0f%% / %4.0f%% %21.0f%% / %4.0f%%\n",
			l, f.Precision*100, f.Recall*100, s.Precision*100, s.Recall*100)
	}
	fmt.Fprintln(c.stdout, "\nCollusion networks are dense blocks; reciprocity abuse is not — the")
	fmt.Fprintln(c.stdout, "asymmetry that pushes the defense toward signal-based attribution.")
	c.telemetryReport(study.World())
	return nil
}

func (c *cli) runSweep(cfg footsteps.Config, nSeeds int) error {
	if nSeeds < 2 {
		nSeeds = 2
	}
	cfg.GraphWrites = true
	seedList := make([]uint64, nSeeds)
	for i := range seedList {
		seedList[i] = cfg.Seed + uint64(i)
	}
	fmt.Fprintf(c.stdout, "Replicating the reciprocation measurement across %d seeds...\n", nSeeds)
	rep, err := core.ReplicateReciprocation(cfg, seedList, 4, 2)
	if err != nil {
		return err
	}
	fmt.Fprint(c.stdout, rep.Format())
	return nil
}

func (c *cli) runCheck() error {
	fmt.Fprintln(c.stdout, "Calibration check: Table 5 (reciprocation)...")
	wA := core.NewWorld(core.Table5CheckConfig())
	tbl, err := wA.ReciprocationStudy(5, 2)
	if err != nil {
		return err
	}
	report, okA := core.FormatFindings(core.CheckTable5(tbl))
	fmt.Fprint(c.stdout, report)

	fmt.Fprintln(c.stdout, "\nCalibration check: §5 business window...")
	wB := core.NewWorld(core.BusinessCheckConfig())
	res, err := wB.BusinessStudy()
	if err != nil {
		return err
	}
	report, okB := core.FormatFindings(core.CheckBusiness(res))
	fmt.Fprint(c.stdout, report)

	if !okA || !okB {
		return fmt.Errorf("calibration drifted from the paper's bands")
	}
	fmt.Fprintln(c.stdout, "\nAll calibration checks pass.")
	return nil
}

func (c *cli) runAll(mkCfg func() footsteps.Config, quick bool) error {
	if err := c.runCatalog(); err != nil {
		return err
	}
	if err := c.runReciprocation(mkCfg(), quick); err != nil {
		return err
	}
	if err := c.runBusiness(mkCfg(), "", ""); err != nil {
		return err
	}
	if err := c.runNarrow(mkCfg(), quick, ""); err != nil {
		return err
	}
	if err := c.runBroad(mkCfg(), quick, ""); err != nil {
		return err
	}
	return c.runAdaptation(mkCfg(), quick)
}
