package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"footsteps/bench/stat"
	"footsteps/internal/core"
	"footsteps/internal/durable"
	"footsteps/internal/faults"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// The simulation workloads set only semantic config — the base config
// plus Days, OrganicPopulation, GraphWrites, Faults, Telemetry and
// Trace — never the Workers, Shards or DisableScratchReuse knobs, so
// those can be deleted without touching the benchmark.

// simRep is what one repetition of a simulation workload measured.
type simRep struct {
	setup    time.Duration // world construction
	wall     time.Duration // everything after set-up: the base of every layer share
	run      time.Duration // the workload's job
	recovery time.Duration
	days     []float64 // wall ms per simulated day of stepping

	hash     string // report or reconstructed-stream sha256
	events   uint64
	accounts int

	// Layers timed from outside, around the benchmark's own calls.
	encode, sync, resume, restore, appendT time.Duration
	snapshotBytes, segmentBytes            int64
	discarded                              uint64

	metered      time.Duration // the span the runtime counters cover
	mallocs, gcs uint64
	gcCPU        float64 // GC CPU seconds
	liveHeap     uint64
}

// simWorkload drives one simulation workload: extraSetups timed world
// constructions (so setup_s has enough samples when repetitions are
// long), then repetitions until the window closes.
type simWorkload struct {
	cfg         core.Config
	extraSetups int
	pin         string // seed-1 hash; "" when the config is shrunk
	rep         func(r *run, cfg core.Config, i int, lt *liveTrace) (*simRep, error)
}

func (sw simWorkload) drive(r *run) error {
	for i := 0; i < sw.extraSetups; i++ {
		w, d := newWorld(sw.cfg)
		r.add("setup_s", secs(d))
		runtime.KeepAlive(w)
	}
	var hash string
	var walls []float64
	var last *simRep
	untraced := func(i int) (int, int, error) {
		rep, err := sw.rep(r, sw.cfg, i, nil)
		if err != nil {
			return 0, 0, err
		}
		r.add("peak_rss_mib", peakRSSMiB())
		r.add("setup_s", secs(rep.setup))
		r.add("run_s", secs(rep.run))
		r.add("recovery_s", secs(rep.recovery))
		for _, d := range rep.days {
			r.add("latency_ms", d)
		}
		walls = append(walls, secs(rep.wall))
		last = rep
		if hash == "" {
			hash = rep.hash
			if sw.pin != "" && r.opt.seed == 1 {
				r.check(hash == sw.pin, "seed-1 hash %s, pinned %s", hash, sw.pin)
			}
		}
		return 1, failedIf(!r.check(rep.hash == hash, "repetition hash %s differs from the first's %s", rep.hash, hash)), nil
	}

	if !r.opt.trace {
		return r.repeatFor(r.window, minReps, untraced)
	}

	// Traced: untraced repetitions for half the window give the baseline
	// wall and the runtime counters, then one repetition runs under a 1/1
	// span tracer.
	if err := r.repeatFor(r.window/2, 1, untraced); err != nil {
		return err
	}
	lt, err := startLiveTrace(sw.cfg.Seed)
	if err != nil {
		return err
	}
	rep, err := sw.rep(r, sw.cfg, r.attempted, lt)
	if serr := lt.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.attempted++
	r.failed += failedIf(!r.check(rep.hash == hash, "traced hash %s differs from untraced %s", rep.hash, hash))
	base := stat.Median(walls)
	r.layers["trace.overhead_pct"] = pct(secs(rep.wall)-base, base)
	r.setSpanLayers(&lt.agg, rep.wall, rep.encode+rep.sync+rep.resume+rep.restore)
	r.setSimLayers(rep, last)
	return nil
}

// setSpanLayers fills the span-derived layer shares of wall. outside is
// the part of wall the benchmark timed around untraced calls
// (persistence, recovery), which no span covers.
func (r *run) setSpanLayers(a *spanAgg, wall, outside time.Duration) {
	w := float64(wall)
	r.layers["step.plan_pct"] = pct(float64(a.planNs), w)
	r.layers["step.apply_self_pct"] = pct(float64(a.sectionSelfNs()), w)
	r.layers["step.intents"] = float64(a.intents)
	for st := trace.StagePreflight; st < trace.StagePlan; st++ {
		r.layers["platform."+st.String()+"_pct"] = pct(float64(a.stageNs[st]), w)
	}
	r.layers["platform.requests"] = float64(a.requests)
	if a.requests > 0 {
		r.layers["platform.allowed_ratio"] = float64(a.allowed) / float64(a.requests)
	}
	other := w - float64(a.sectionNs) - float64(a.topNs) - float64(outside)
	r.layers["core.other_pct"] = pct(other, w)
	r.layers["aas.retries"] = float64(a.retries)
	r.layers["aas.breaker_transitions"] = float64(a.breakers)
	r.layers["trace.spans"] = float64(a.spans)
}

// setSimLayers fills the layers the benchmark timed from outside during
// the traced repetition, and the runtime counters of an untraced one.
func (r *run) setSimLayers(traced, untraced *simRep) {
	w := float64(traced.wall)
	r.layers["core.restore_pct"] = pct(float64(traced.restore), w)
	r.layers["durable.append_pct"] = pct(float64(traced.appendT), w)
	r.layers["durable.sync_pct"] = pct(float64(traced.sync), w)
	r.layers["durable.resume_pct"] = pct(float64(traced.resume), w)
	r.layers["durable.segment_mib"] = mib(traced.segmentBytes)
	r.layers["durable.discarded_events"] = float64(traced.discarded)
	r.layers["persistence.encode_pct"] = pct(float64(traced.encode), w)
	r.layers["persistence.snapshot_mib"] = mib(traced.snapshotBytes)
	r.layers["sim.events"] = float64(untraced.events)
	if untraced.events > 0 {
		r.layers["runtime.allocs_per_event"] = float64(untraced.mallocs) / float64(untraced.events)
	}
	r.layers["runtime.gc_cycles"] = float64(untraced.gcs)
	r.layers["runtime.gc_cpu_pct"] = pct(untraced.gcCPU, secs(untraced.metered)*float64(runtime.GOMAXPROCS(0)))
	r.layers["runtime.live_heap_mib"] = mib(int64(untraced.liveHeap))
	if untraced.accounts > 0 {
		r.layers["runtime.bytes_per_account"] = float64(untraced.liveHeap) / float64(untraced.accounts)
	}
}

func failedIf(failed bool) int {
	if failed {
		return 1
	}
	return 0
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// runtimeMeter reads the allocation and GC counters around a repetition.
type runtimeMeter struct {
	ms     runtime.MemStats
	sample [1]metrics.Sample
	t      time.Time
}

func (m *runtimeMeter) start() {
	m.sample[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	runtime.ReadMemStats(&m.ms)
	metrics.Read(m.sample[:])
	m.t = time.Now()
}

func (m *runtimeMeter) stop(rep *simRep) {
	rep.metered = time.Since(m.t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := m.sample
	metrics.Read(gc[:])
	rep.mallocs = ms.Mallocs - m.ms.Mallocs
	rep.gcs = uint64(ms.NumGC - m.ms.NumGC)
	if gc[0].Value.Kind() == metrics.KindFloat64 && m.sample[0].Value.Kind() == metrics.KindFloat64 {
		rep.gcCPU = gc[0].Value.Float64() - m.sample[0].Value.Float64()
	}
}

// newWorld times one world construction. The previous repetition's
// garbage is collected first: set-up should not pay for it.
func newWorld(cfg core.Config) (*core.World, time.Duration) {
	runtime.GC()
	t := time.Now()
	w := core.NewWorld(cfg)
	return w, time.Since(t)
}

// startPeak returns the memory no live world holds to the OS and
// restarts the peak resident set size from there, so the peak read at
// the end of a repetition is that repetition's own: its world plus what
// running it took, as in a fresh process.
func startPeak() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dayClock records the wall time of each simulated day from the event
// stream: a day ends when the first event of the next one is emitted.
// It is a pure observer, like every event-log subscriber.
type dayClock struct {
	day    int64
	last   time.Time
	ms     []float64
	events uint64
}

func (d *dayClock) observe(ev platform.Event) {
	d.events++
	day := ev.Time.Unix() / 86400
	if day == d.day {
		return
	}
	now := time.Now()
	if !d.last.IsZero() {
		d.ms = append(d.ms, millis(now.Sub(d.last)))
	}
	d.day, d.last = day, now
}

// dayHook returns a RunDaysFunc hook that records each day's stepping
// time and then runs then (a checkpoint, or nil), which is not counted.
func (rep *simRep) dayHook(then func(day int) error) func(day int) error {
	start := time.Now()
	return func(day int) error {
		rep.days = append(rep.days, millis(time.Since(start)))
		var err error
		if then != nil {
			err = then(day)
		}
		start = time.Now()
		return err
	}
}

// appender subscribes a durable log to w's event stream, timing each
// Append when timed is set (the traced repetition only).
func (rep *simRep) appender(w *core.World, dlog *durable.Log, timed bool) {
	if !timed {
		w.Plat.Log().Subscribe(func(ev platform.Event) { _ = dlog.Append(ev) })
		return
	}
	w.Plat.Log().Subscribe(func(ev platform.Event) {
		t := time.Now()
		_ = dlog.Append(ev)
		rep.appendT += time.Since(t)
	})
}

// checkpoint returns a hook that checkpoints w into dlog, splitting the
// time into snapshot encode and the durable sync around it.
func (rep *simRep) checkpoint(w *core.World, dlog *durable.Log) func(day int) error {
	return func(day int) error {
		t := time.Now()
		var enc time.Duration
		err := dlog.Checkpoint(day, func(out io.Writer) error {
			t := time.Now()
			err := w.Snapshot(out)
			enc = time.Since(t)
			if b, ok := out.(*bytes.Buffer); ok { // Checkpoint encodes into a buffer
				rep.snapshotBytes = int64(b.Len())
			}
			return err
		})
		rep.encode += enc
		rep.sync += time.Since(t) - enc
		if err != nil {
			return err
		}
		return dlog.Err()
	}
}

// streamHash reconstructs a durable log's FSEV1 stream and hashes it,
// also returning the event count and the segment bytes on disk.
func streamHash(dir string) (string, uint64, int64, error) {
	h := sha256.New()
	n, err := durable.Reconstruct(durable.OSFS{}, dir, h)
	if err != nil {
		return "", 0, 0, err
	}
	var seg int64
	names, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, 0, err
	}
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".fseg") {
			if info, err := e.Info(); err == nil {
				seg += info.Size()
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n, seg, nil
}

func (lt *liveTrace) tracer() *trace.Tracer {
	if lt == nil {
		return nil
	}
	return lt.tr
}

// --- business30 -----------------------------------------------------------

// runBusiness is the paper's §5 pipeline exactly as `footsteps business`
// runs it (DefaultConfig: 1/500 scale, graph writes and telemetry off),
// over a 30-day window so that several studies fit in one run. It then
// checkpoints the finished world and restores it, as `footsteps record
// -checkpoint-*` and `footsteps replay -from` would.
func runBusiness(r *run) error { return businessWorkload(r.opt).drive(r) }

func businessWorkload(opt options) simWorkload {
	cfg := core.DefaultConfig()
	cfg.Days = 30
	pin := pinBusiness30
	if opt.smoke {
		cfg = core.TestConfig()
		cfg.Days, cfg.OrganicPopulation = 2, 2000
		pin = ""
	}
	cfg.Seed = opt.seed
	return simWorkload{cfg: cfg, extraSetups: 6, pin: pin, rep: businessRep}
}

func businessRep(r *run, cfg core.Config, _ int, lt *liveTrace) (*simRep, error) {
	rep := &simRep{}
	restoreCfg := cfg
	cfg.Trace = lt.tracer()
	w, setup := newWorld(cfg)
	rep.setup = setup
	if err := startPeak(); err != nil {
		return nil, err
	}

	var meter runtimeMeter
	meter.start()
	var dc dayClock
	w.Plat.Log().Subscribe(dc.observe)
	start := time.Now()
	res, err := w.BusinessStudy()
	if err != nil {
		return nil, err
	}
	rep.run = time.Since(start)
	meter.stop(rep)
	rep.days = dc.ms
	rep.events = dc.events
	h := sha256.New()
	io.WriteString(h, core.FormatBusiness(res))
	io.WriteString(h, core.FormatRevenueSummary(res))
	rep.hash = hex.EncodeToString(h.Sum(nil))

	var snap bytes.Buffer
	t := time.Now()
	if err := w.Snapshot(&snap); err != nil {
		return nil, err
	}
	rep.encode = time.Since(t)
	rep.snapshotBytes = int64(snap.Len())
	t = time.Now()
	w2, err := core.RestoreWorld(restoreCfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, err
	}
	rep.recovery = time.Since(t)
	rep.restore = rep.recovery
	rep.wall = time.Since(start)

	var again bytes.Buffer
	if err := w2.Snapshot(&again); err != nil {
		return nil, err
	}
	r.check(bytes.Equal(again.Bytes(), snap.Bytes()), "restored world snapshots differently (%d vs %d bytes)", again.Len(), snap.Len())
	rep.liveHeap = liveHeap()
	rep.accounts = w2.Plat.NumAccounts()
	runtime.KeepAlive(w2)
	return rep, nil
}

// --- durable-graph --------------------------------------------------------

// runDurableGraph is the write path: graph writes, the "mixed" fault
// scenario and a telemetry registry (the CLI's faulted config), stepping
// into a durable log with a checkpoint every day. The run crashes after
// day crashDay — the log abandoned unclosed, that day never
// checkpointed — and recovers: Resume, RestoreWorld, re-derive the lost
// day, finish.
func runDurableGraph(r *run) error { return durableGraphWorkload(r.opt).drive(r) }

func durableGraphWorkload(opt options) simWorkload {
	cfg := core.DefaultConfig()
	cfg.Days = 10
	pin := pinDurableGraph
	if opt.smoke {
		cfg = core.TestConfig()
		cfg.Days, cfg.OrganicPopulation = 5, 2000
		pin = ""
	}
	cfg.GraphWrites = true
	cfg.Faults = faults.MustScenario("mixed")
	cfg.Seed = opt.seed
	return simWorkload{cfg: cfg, extraSetups: 6, pin: pin, rep: durableRep}
}

// crashDay is the day durable-graph loses: checkpoints land after days
// 1..cfg.Days-4, the next day runs without one, then the process dies.
func crashDay(cfg core.Config) int { return max(cfg.Days-3, 1) }

func durableRep(r *run, cfg core.Config, i int, lt *liveTrace) (*simRep, error) {
	return durableRun(r, cfg, i, lt, crashDay(cfg))
}

// durableRun runs one durable-graph repetition crashing after day crash;
// crash 0 runs straight through (the reference the recovery must match).
func durableRun(r *run, cfg core.Config, i int, lt *liveTrace, crash int) (*simRep, error) {
	rep := &simRep{}
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Trace = lt.tracer()
	dir := filepath.Join(r.dir, fmt.Sprintf("durable-%d", i))
	defer os.RemoveAll(dir)
	opts := durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint(), Telemetry: cfg.Telemetry}
	timed := lt != nil

	w, setup := newWorld(cfg)
	rep.setup = setup
	if err := startPeak(); err != nil {
		return nil, err
	}
	var meter runtimeMeter
	meter.start()
	start := time.Now()
	dlog, err := durable.Create(durable.OSFS{}, dir, opts)
	if err != nil {
		return nil, err
	}
	rep.appender(w, dlog, timed)
	w.RunAll()
	if crash > 0 {
		if err := w.RunDaysFunc(crash-1, rep.dayHook(rep.checkpoint(w, dlog))); err != nil {
			return nil, err
		}
		// The crashed day: stepped and partly framed, never checkpointed.
		if err := w.RunDaysFunc(1, rep.dayHook(nil)); err != nil {
			return nil, err
		}
		w, dlog = nil, nil

		t := time.Now()
		dlog, err = durable.Resume(durable.OSFS{}, dir, opts)
		if err != nil {
			return nil, err
		}
		rep.resume = time.Since(t)
		rec := dlog.Recovery()
		rep.discarded = rec.DiscardedEvents
		r.check(rec.CheckpointDay == crash-1, "resumed at day %d, want %d", rec.CheckpointDay, crash-1)
		tr := time.Now()
		w, err = core.RestoreWorld(cfg, bytes.NewReader(rec.Checkpoint))
		if err != nil {
			return nil, err
		}
		rep.restore = time.Since(tr)
		rep.appender(w, dlog, timed)
		// Re-derive the lost day; recovery ends at the crash instant.
		rederive := rep.dayHook(func(int) error {
			rep.recovery = time.Since(t)
			return nil
		})
		if err := w.RunDaysFunc(1, rederive); err != nil {
			return nil, err
		}
		if err := rep.checkpoint(w, dlog)(w.DaysRun()); err != nil {
			return nil, err
		}
	}
	if err := w.RunDaysFunc(cfg.Days-w.DaysRun(), rep.dayHook(rep.checkpoint(w, dlog))); err != nil {
		return nil, err
	}
	if err := dlog.Close(); err != nil {
		return nil, err
	}
	rep.run = time.Since(start)
	rep.wall = rep.run
	meter.stop(rep)

	rep.hash, rep.events, rep.segmentBytes, err = streamHash(dir)
	if err != nil {
		return nil, err
	}
	rep.liveHeap = liveHeap()
	rep.accounts = w.Plat.NumAccounts()
	runtime.KeepAlive(w)
	return rep, nil
}

// --- scale100k ------------------------------------------------------------

// runScale is the population-scale workload: DefaultConfig's services
// over 100,000 organic accounts for 10 days, into a durable log with one
// checkpoint at the end. The first world is dropped and memory returned
// to the OS before Resume and RestoreWorld, so recovery pays for a cold
// process. World set-up, memory density and big-snapshot persistence
// weigh as much as stepping. The services run at DefaultConfig's 1/500
// scale, not TestConfig's 1/5000: with ten times the customers, the
// work a seed draws varies 2% between seeds rather than 13%.
func runScale(r *run) error { return scaleWorkload(r.opt).drive(r) }

func scaleWorkload(opt options) simWorkload {
	cfg := core.DefaultConfig()
	cfg.Days = 10
	cfg.OrganicPopulation = 100_000
	pin := pinScale100k
	if opt.smoke {
		cfg = core.TestConfig()
		cfg.Days, cfg.OrganicPopulation = 2, 2000
		pin = ""
	}
	cfg.Seed = opt.seed
	return simWorkload{cfg: cfg, pin: pin, rep: scaleRep}
}

func scaleRep(r *run, cfg core.Config, i int, lt *liveTrace) (*simRep, error) {
	rep := &simRep{}
	restoreCfg := cfg
	cfg.Trace = lt.tracer()
	dir := filepath.Join(r.dir, fmt.Sprintf("scale-%d", i))
	defer os.RemoveAll(dir)
	opts := durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint()}

	w, setup := newWorld(cfg)
	rep.setup = setup
	if err := startPeak(); err != nil {
		return nil, err
	}
	var meter runtimeMeter
	meter.start()
	start := time.Now()
	dlog, err := durable.Create(durable.OSFS{}, dir, opts)
	if err != nil {
		return nil, err
	}
	rep.appender(w, dlog, lt != nil)
	w.RunAll()
	if err := w.RunDaysFunc(cfg.Days, rep.dayHook(nil)); err != nil {
		return nil, err
	}
	stepped := time.Since(start)
	// The checkpoint sets this workload's peak memory. Starting it from a
	// collected heap makes that peak the world plus what checkpointing it
	// takes, rather than that plus however much of the stepping's garbage
	// the collector had yet to reach. The collection is not timed.
	runtime.GC()
	t := time.Now()
	if err := rep.checkpoint(w, dlog)(cfg.Days); err != nil {
		return nil, err
	}
	if err := dlog.Close(); err != nil {
		return nil, err
	}
	rep.run = stepped + time.Since(t)
	meter.stop(rep)
	w, dlog = nil, nil
	debug.FreeOSMemory()

	t = time.Now()
	dlog, err = durable.Resume(durable.OSFS{}, dir, opts)
	if err != nil {
		return nil, err
	}
	rep.resume = time.Since(t)
	tr := time.Now()
	w, err = core.RestoreWorld(restoreCfg, bytes.NewReader(dlog.Recovery().Checkpoint))
	if err != nil {
		return nil, err
	}
	rep.restore = time.Since(tr)
	rep.recovery = time.Since(t)
	rep.wall = rep.run + rep.recovery
	r.check(w.DaysRun() == cfg.Days, "restored at day %d, want %d", w.DaysRun(), cfg.Days)
	if err := dlog.Close(); err != nil {
		return nil, err
	}
	rep.hash, rep.events, rep.segmentBytes, err = streamHash(dir)
	if err != nil {
		return nil, err
	}
	rep.liveHeap = liveHeap()
	rep.accounts = w.Plat.NumAccounts()
	runtime.KeepAlive(w)
	return rep, nil
}
