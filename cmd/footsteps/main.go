// Command footsteps regenerates the paper's tables and figures from the
// simulated study.
//
// Usage:
//
//	footsteps [flags] <command>
//
// Commands:
//
//	catalog        Tables 1–4 (static service catalog)
//	reciprocation  Table 5   (§4.3 honeypot measurement)
//	business       Tables 6–11, Figures 2–4 (§5 characterization)
//	narrow         Figures 5–6 (§6.3 narrow intervention)
//	broad          Figure 7  (§6.4 broad intervention)
//	adaptation     §6.4 epilogue (proxy evasion, endgame)
//	faults         fault-injection demo (resilience under infrastructure failure)
//	run            crash-tolerant run (durable segment log, atomic checkpoints, -resume)
//	serve          host the world behind the HTTP/WS /v1 API (see docs/API.md)
//	loadgen        drive mixed /v1 traffic at a serve instance, report latency
//	trace          inspect an FTRC1 span trace (-stats, -grep, -export chrome)
//	all            everything above, in paper order
//
// Flags:
//
//	-seed N          RNG seed (default 1)
//	-scale F         customer-dynamics scale vs the paper (default 1/500)
//	-days N          measurement window in days (default 90)
//	-quick           small, fast configuration (for smoke runs)
//	-faults P        fault profile: built-in scenario name or JSON path
//	-metrics FILE    write per-day telemetry JSONL next to the report
//	-debug-addr H:P  serve live expvar snapshots and pprof while running
//	-trace FILE      write a deterministic FTRC1 span trace of the run
//	-trace-sample R  span sampling rate, 1/N or N (default 1 = every span)
//	-cpuprofile F    write a pprof CPU profile of the run
//	-memprofile F    write a pprof heap profile at exit
//
// Telemetry and tracing are pure observers: enabling -metrics,
// -debug-addr, or -trace changes neither the event stream nor any table
// (see docs/OBSERVABILITY.md).
// SIGINT/SIGTERM trigger a graceful shutdown: the -metrics sink is synced
// and the debug server drains before exit, so interrupted runs never
// leave torn metric files.
package main

import (
	"context"
	"flag"
	"fmt"
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
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// Run-wide telemetry sinks, set once in main before any study runs.
var (
	telReg        *telemetry.Registry
	telMetricsOut *os.File
	telDebugSrv   *telemetry.DebugServer

	traceTracer *trace.Tracer
	traceOut    *os.File
	tracePath   string
)

// telemetryAttach wires the per-day JSONL sink to a freshly built world.
func telemetryAttach(w *core.World) {
	if telMetricsOut != nil {
		w.StreamTelemetryDaily(telMetricsOut)
	}
}

// telemetryReport prints the end-of-run summary tables, if enabled: the
// fault/retry/breaker section (faulted runs only), then the full metric
// dump. It also finalizes the daily JSONL stream, surfacing write errors
// that the per-day flushes deliberately swallowed.
func telemetryReport(w *core.World) {
	if s := w.FaultSummary(); s != "" {
		fmt.Println(s)
	}
	if s := w.TelemetrySummary(); s != "" {
		fmt.Println(s)
	}
	if err := w.FinalizeTelemetry(); err != nil {
		fmt.Fprintf(os.Stderr, "footsteps: telemetry stream incomplete: %v\n", err)
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
		return 0, fmt.Errorf("footsteps: bad -trace-sample %q (want 1/N or N)", arg)
	}
	return n, nil
}

// finishTrace flushes and closes the -trace stream, reporting what was
// captured. Safe to call more than once; a nil tracer is a no-op.
func finishTrace() {
	if traceTracer == nil {
		return
	}
	tr := traceTracer
	traceTracer = nil
	if err := tr.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "footsteps: trace stream: %v\n", err)
	} else {
		fmt.Printf("Trace: %d spans written to %s (sample 1/%d)\n", tr.Spans(), tracePath, tr.SampleN())
	}
	if traceOut != nil {
		traceOut.Sync()
		traceOut.Close()
		traceOut = nil
	}
}

// loadFaultProfile resolves the -faults argument: a built-in scenario
// name first, a JSON profile path otherwise.
func loadFaultProfile(arg string) (*faults.Profile, error) {
	if p, err := faults.Scenario(arg); err == nil {
		return p, nil
	}
	return faults.Load(arg)
}

// shutdownOnSignal installs the graceful-shutdown handler: on SIGINT or
// SIGTERM the -metrics JSONL sink is synced (its writes are line-atomic
// and unbuffered, so syncing leaves no torn records) and the debug
// server drains with a timeout before the process exits.
func shutdownOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "\nfootsteps: %v: flushing telemetry sinks\n", sig)
		finishTrace()
		if telMetricsOut != nil {
			telMetricsOut.Sync()
			telMetricsOut.Close()
		}
		if telDebugSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			telDebugSrv.Shutdown(ctx)
			cancel()
		}
		if sig == syscall.SIGTERM {
			os.Exit(143)
		}
		os.Exit(130)
	}()
}

// runFaults is the resilience demo: a compact faulted run (the "mixed"
// scenario unless -faults chose otherwise) followed by the injected-
// fault and client-resilience summary.
func runFaults(cfg footsteps.Config) error {
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
	telemetryAttach(w)
	fmt.Printf("Fault demo: profile %q over %d days (seed %d)...\n",
		cfg.Faults.Name, cfg.Days, cfg.Seed)
	w.RunAll()
	w.Sched.RunFor(time.Duration(cfg.Days) * clock.Day)
	fmt.Println()
	fmt.Println(w.FaultSummary())
	return nil
}

func main() {
	seed := flag.Uint64("seed", 1, "RNG seed")
	scale := flag.Float64("scale", 1.0/500, "customer-dynamics scale vs the paper")
	days := flag.Int("days", 90, "measurement window in days")
	quick := flag.Bool("quick", false, "small fast configuration")
	outDir := flag.String("o", "", "directory for machine-readable TSV exports (optional)")
	record := flag.String("record", "", "write the full event stream to this FSEV1 capture file (business, record, replay)")
	checkpointDir := flag.String("checkpoint-dir", "", "write FSNAP1 world checkpoints into this directory (record only)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in days, 0 = off (record only)")
	fromSnap := flag.String("from", "", "FSNAP1 checkpoint to restore before replaying (replay only)")
	durableDir := flag.String("durable", "", "durable log directory: checksummed segments + atomic checkpoints (run only)")
	resumeFlag := flag.Bool("resume", false, "recover the -durable log after a crash and finish the run (run only)")
	crashAfterOp := flag.Uint64("crash-after-op", 0, "kill the process at this durable filesystem op, for crash-injection testing (run only)")
	fsyncEvery := flag.Bool("fsync-every", false, "fsync the durable log after every frame, not only at checkpoints (run only)")
	against := flag.String("against", "", "FSEV1 capture to verify the replayed stream against (replay only)")
	seeds := flag.Int("seeds", 5, "number of independent seeds for the sweep command")
	metricsPath := flag.String("metrics", "", "write per-day telemetry JSONL to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar metrics and pprof on this address (e.g. localhost:6060)")
	traceFile := flag.String("trace", "", "write an FTRC1 span trace to this file (inspect with `footsteps trace`)")
	traceSample := flag.String("trace-sample", "1", "span sampling rate, 1/N or N (deterministic; 1 = every span)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	faultsFlag := flag.String("faults", "",
		"fault profile: built-in scenario ("+strings.Join(faults.Scenarios(), ", ")+") or a JSON profile path")
	serveAddr := flag.String("serve-addr", "127.0.0.1:8343", "listen address for the serve command")
	servePace := flag.Float64("serve-pace", 0, "sim-seconds per wall-second while serving (0 = default 60)")
	serveQueue := flag.Int("serve-queue", 0, "ingress queue depth before requests shed as overloaded (0 = default)")
	serveBatch := flag.Int("serve-batch", 0, "max envelopes applied per world-loop drain (0 = default)")
	ingressLog := flag.String("ingress-log", "", "FING1 ingress log: written by serve, re-driven by replay")
	lgTarget := flag.String("target", "http://127.0.0.1:8343", "serve instance base URL (loadgen only)")
	lgRPS := flag.Float64("rps", 0, "target request rate, 0 = unthrottled (loadgen only)")
	lgDuration := flag.Duration("duration", 5*time.Second, "traffic duration (loadgen only)")
	lgConns := flag.Int("conns", 4, "concurrent connections (loadgen only)")
	lgBatch := flag.Int("batch", 64, "envelopes per NDJSON batch (loadgen only)")
	lgAccounts := flag.Int("accounts", 32, "accounts to register for traffic (loadgen only)")
	flag.Usage = usage
	flag.Parse()

	// The trace inspector takes its own flags and a file operand, so it
	// dispatches before the single-command arity check.
	if flag.Arg(0) == "trace" {
		if err := runTrace(flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	var faultProfile *faults.Profile
	if *faultsFlag != "" {
		p, err := loadFaultProfile(*faultsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		faultProfile = p
	}

	// A faulted run always carries a registry so the report's
	// fault/retry/breaker section has counters behind it.
	if *metricsPath != "" || *debugAddr != "" || faultProfile != nil {
		telReg = telemetry.NewRegistry()
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		defer f.Close()
		telMetricsOut = f
	}
	if *debugAddr != "" {
		srv, err := telemetry.ServeDebug(*debugAddr, telReg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		defer srv.Close()
		telDebugSrv = srv
		fmt.Printf("Debug server on http://%s (/debug/vars, /metrics.json, /debug/pprof/)\n", srv.Addr())
	}
	if *traceFile != "" {
		sampleN, err := parseSampleRate(*traceSample)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		tr, err := trace.New(f, *seed, sampleN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		traceTracer, traceOut, tracePath = tr, f, *traceFile
	}
	var cpuProfileOut *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", err)
			os.Exit(1)
		}
		cpuProfileOut = f
	}
	// serve owns its signal handling: SIGTERM/SIGINT trigger a graceful
	// drain (seal the ingress log, flush the capture) instead of the
	// flush-and-exit path every other command wants.
	if flag.Arg(0) != "serve" {
		shutdownOnSignal()
	}

	mkCfg := func() footsteps.Config {
		cfg := footsteps.DefaultConfig()
		if *quick {
			cfg = footsteps.TestConfig()
		}
		cfg.Seed = *seed
		cfg.Scale = *scale
		cfg.Days = *days
		cfg.Telemetry = telReg
		cfg.Trace = traceTracer
		cfg.Faults = faultProfile
		cfg.CheckpointDir = *checkpointDir
		cfg.CheckpointEvery = *checkpointEvery
		cfg.ServeAddr = *serveAddr
		cfg.ServePace = *servePace
		cfg.ServeQueueDepth = *serveQueue
		cfg.ServeMaxBatch = *serveBatch
		cfg.ServeIngressLog = *ingressLog
		if *quick {
			cfg.Scale = footsteps.TestConfig().Scale
			cfg.Days = footsteps.TestConfig().Days
		}
		return cfg
	}

	cmd := flag.Arg(0)
	var err error
	switch cmd {
	case "catalog":
		err = runCatalog()
	case "reciprocation":
		err = runReciprocation(mkCfg(), *quick)
	case "business":
		err = runBusiness(mkCfg(), *outDir, *record)
	case "narrow":
		err = runNarrow(mkCfg(), *quick, *outDir)
	case "broad":
		err = runBroad(mkCfg(), *quick, *outDir)
	case "adaptation":
		err = runAdaptation(mkCfg(), *quick)
	case "graphdetect":
		err = runGraphDetect(mkCfg())
	case "sweep":
		err = runSweep(mkCfg(), *seeds)
	case "faults":
		err = runFaults(mkCfg())
	case "record":
		err = runRecord(mkCfg(), *record)
	case "run":
		err = runDurable(mkCfg(), *durableDir, *resumeFlag, *crashAfterOp, *fsyncEvery)
	case "serve":
		err = runServe(mkCfg(), *record)
	case "loadgen":
		err = runLoadgen(*lgTarget, *lgRPS, *lgDuration, *lgConns, *lgBatch, *lgAccounts)
	case "replay":
		if *ingressLog != "" {
			err = runReplayIngress(mkCfg(), *ingressLog, *against, *record)
		} else {
			err = runReplay(mkCfg(), *fromSnap, *against, *record, 0)
		}
	case "check":
		err = runCheck()
	case "all":
		err = runAll(mkCfg, *quick)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	finishTrace()
	if cpuProfileOut != nil {
		pprof.StopCPUProfile()
		cpuProfileOut.Close()
		fmt.Printf("CPU profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		if perr := writeMemProfile(*memProfile); perr != nil {
			fmt.Fprintln(os.Stderr, "footsteps:", perr)
		} else {
			fmt.Printf("Heap profile written to %s\n", *memProfile)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "footsteps:", err)
		os.Exit(1)
	}
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

func usage() {
	fmt.Fprintf(os.Stderr, `usage: footsteps [flags] <command>

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
  record         canonical run with -record/-checkpoint-* artifacts (FSEV1 + FSNAP1)
  run            crash-tolerant run: durable segment log + atomic checkpoints (-durable, -resume)
  serve          host the world behind the HTTP/WS /v1 API (-serve-addr, -ingress-log; docs/API.md)
  loadgen        drive mixed /v1 traffic at a serve instance (-target, -rps, -duration, -conns)
  replay         re-drive a checkpoint (-from) or a serve ingress log (-ingress-log), verify -against
  trace          inspect an FTRC1 span trace: -stats, -grep spec, -export chrome
  check          machine-checked calibration against the paper's bands
  all            everything, in paper order

flags:
`)
	flag.PrintDefaults()
}

func runCatalog() error {
	fmt.Println(footsteps.FormatTable1())
	fmt.Println(footsteps.FormatTable2())
	fmt.Println(footsteps.FormatTable3())
	fmt.Println(footsteps.FormatTable4())
	return nil
}

func runReciprocation(cfg footsteps.Config, quick bool) error {
	cfg.GraphWrites = true // honeypot studies need full graph fidelity
	study := footsteps.NewStudy(cfg)
	telemetryAttach(study.World())
	empty, lived := 9, 3
	if quick {
		empty, lived = 3, 1
	}
	fmt.Printf("Registering %d empty + %d lived-in honeypots per (service, action) cell...\n", empty, lived)
	tbl, err := study.Reciprocation(empty, lived)
	if err != nil {
		return err
	}
	fmt.Println(footsteps.FormatTable5(tbl))
	telemetryReport(study.World())
	return nil
}

func runBusiness(cfg footsteps.Config, outDir, record string) error {
	study := footsteps.NewStudy(cfg)
	telemetryAttach(study.World())
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
	fmt.Printf("Running the %d-day measurement window at scale %.5f (seed %d)...\n",
		cfg.Days, cfg.Scale, cfg.Seed)
	res, err := study.Business()
	if err != nil {
		return err
	}
	fmt.Println(footsteps.FormatBusiness(res))
	fmt.Println(footsteps.FormatRevenueSummary(res))
	if capture != nil {
		if err := capture.Flush(); err != nil {
			return err
		}
		fmt.Printf("Event capture: %d events written to %s\n", capture.Count(), record)
	}
	if outDir != "" {
		if err := footsteps.ExportBusiness(res, outDir); err != nil {
			return err
		}
		fmt.Printf("TSV exports written to %s\n", outDir)
	}
	telemetryReport(study.World())
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

func runNarrow(cfg footsteps.Config, quick bool, outDir string) error {
	calib, weeks := 7, 6
	if quick {
		calib, weeks = 5, 3
	}
	cfg = interventionCfg(cfg, 2+calib+weeks*7)
	study := footsteps.NewStudy(cfg)
	telemetryAttach(study.World())
	fmt.Printf("Narrow intervention: %d calibration days, %d weeks of block/delay/control bins...\n", calib, weeks)
	res, err := study.NarrowIntervention(calib, weeks)
	if err != nil {
		return err
	}
	fmt.Println(footsteps.FormatIntervention(res))
	telemetryReport(study.World())
	return exportIntervention(res, outDir)
}

func exportIntervention(res *footsteps.InterventionResults, outDir string) error {
	if outDir == "" {
		return nil
	}
	if err := footsteps.ExportIntervention(res, outDir); err != nil {
		return err
	}
	fmt.Printf("TSV exports written to %s\n", outDir)
	return nil
}

func runBroad(cfg footsteps.Config, quick bool, outDir string) error {
	calib, days, switchDay := 7, 14, 6
	if quick {
		calib = 5
	}
	cfg = interventionCfg(cfg, 2+calib+days)
	study := footsteps.NewStudy(cfg)
	telemetryAttach(study.World())
	fmt.Printf("Broad intervention: delay days 0-%d, block thereafter, 90%% of accounts...\n", switchDay-1)
	res, err := study.BroadIntervention(calib, days, switchDay)
	if err != nil {
		return err
	}
	fmt.Println(footsteps.FormatIntervention(res))
	telemetryReport(study.World())
	return exportIntervention(res, outDir)
}

func runAdaptation(cfg footsteps.Config, quick bool) error {
	calib, phase := 5, 10
	if quick {
		phase = 7
	}
	cfg = interventionCfg(cfg, 2+calib+2*phase+1)
	study := footsteps.NewStudy(cfg)
	telemetryAttach(study.World())
	fmt.Printf("Adaptation study: %d-day phases of broad blocking, then proxy evasion...\n", phase)
	res, err := study.Adaptation(calib, phase)
	if err != nil {
		return err
	}

	labels := make([]string, 0, len(res.Phase1))
	for l := range res.Phase1 {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Println("Like traffic before and after the proxy move:")
	fmt.Printf("%-12s %22s %22s %10s\n", "service", "blocked% (pre)", "blocked% (post)", "proxyASNs")
	for _, l := range labels {
		fmt.Printf("%-12s %21.1f%% %21.1f%% %10d\n",
			l, res.Phase1[l].BlockedFraction()*100, res.Phase2[l].BlockedFraction()*100,
			res.ProxyDiversity[l])
	}
	fmt.Printf("\nEvaded traffic still attributable by client fingerprint: %v\n", res.StillAttributable)
	fmt.Printf("Hublaagram lists all paid services out of stock: %v\n", res.HublaagramOutOfStock)
	telemetryReport(study.World())
	return nil
}

func runGraphDetect(cfg footsteps.Config) error {
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
	telemetryAttach(study.World())
	fmt.Println("Running the graph-detection baseline against signal attribution...")
	res, err := study.World().GraphDetectionStudy()
	if err != nil {
		return err
	}
	fmt.Printf("\nDense blocks found: %d\n", len(res.Blocks))
	for i, blk := range res.Blocks {
		fmt.Printf("  block %d: %v\n", i+1, blk)
	}
	labels := make([]string, 0, len(res.Fraudar))
	for l := range res.Fraudar {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Printf("\n%-12s %28s %28s\n", "service", "graph baseline (P/R)", "signal attribution (P/R)")
	for _, l := range labels {
		f, s := res.Fraudar[l], res.Signature[l]
		fmt.Printf("%-12s %14.0f%% / %4.0f%% %21.0f%% / %4.0f%%\n",
			l, f.Precision*100, f.Recall*100, s.Precision*100, s.Recall*100)
	}
	fmt.Println("\nCollusion networks are dense blocks; reciprocity abuse is not — the")
	fmt.Println("asymmetry that pushes the defense toward signal-based attribution.")
	telemetryReport(study.World())
	return nil
}

func runSweep(cfg footsteps.Config, nSeeds int) error {
	if nSeeds < 2 {
		nSeeds = 2
	}
	cfg.GraphWrites = true
	seedList := make([]uint64, nSeeds)
	for i := range seedList {
		seedList[i] = cfg.Seed + uint64(i)
	}
	fmt.Printf("Replicating the reciprocation measurement across %d seeds...\n", nSeeds)
	rep, err := core.ReplicateReciprocation(cfg, seedList, 4, 2)
	if err != nil {
		return err
	}
	fmt.Print(rep.Format())
	return nil
}

func runCheck() error {
	fmt.Println("Calibration check: Table 5 (reciprocation)...")
	cfgA := footsteps.TestConfig()
	cfgA.GraphWrites = true
	cfgA.PoolSize = 1500
	wA := core.NewWorld(cfgA)
	tbl, err := wA.ReciprocationStudy(5, 2)
	if err != nil {
		return err
	}
	report, okA := core.FormatFindings(core.CheckTable5(tbl))
	fmt.Print(report)

	fmt.Println("\nCalibration check: §5 business window...")
	cfgB := footsteps.TestConfig()
	cfgB.Days = 45
	cfgB.Scale = 1.0 / 2000
	cfgB.ScaleOverride = map[string]float64{aas.NameHublaagram: 4}
	wB := core.NewWorld(cfgB)
	res, err := wB.BusinessStudy()
	if err != nil {
		return err
	}
	report, okB := core.FormatFindings(core.CheckBusiness(res))
	fmt.Print(report)

	if !okA || !okB {
		return fmt.Errorf("calibration drifted from the paper's bands")
	}
	fmt.Println("\nAll calibration checks pass.")
	return nil
}

func runAll(mkCfg func() footsteps.Config, quick bool) error {
	if err := runCatalog(); err != nil {
		return err
	}
	if err := runReciprocation(mkCfg(), quick); err != nil {
		return err
	}
	if err := runBusiness(mkCfg(), "", ""); err != nil {
		return err
	}
	if err := runNarrow(mkCfg(), quick, ""); err != nil {
		return err
	}
	if err := runBroad(mkCfg(), quick, ""); err != nil {
		return err
	}
	return runAdaptation(mkCfg(), quick)
}
