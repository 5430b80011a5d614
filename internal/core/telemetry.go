package core

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"footsteps/internal/telemetry"
)

// StreamTelemetryDaily schedules an end-of-day flush of the world's
// telemetry registry to out as JSONL, one record per simulated day (see
// docs/OBSERVABILITY.md for the schema). The flush runs at 23:59 each day
// for the measurement window plus slack, mirroring the automation
// schedules' overhang.
//
// The flush callbacks are pure observers: they read counters, set two
// gauges (sched.pending, sim.day), and write to out — they consume no RNG
// draws and touch no simulation state, so the event stream is unchanged.
// It is a no-op when the config carries no registry.
func (w *World) StreamTelemetryDaily(out io.Writer) {
	reg := w.Cfg.Telemetry
	if reg == nil || out == nil {
		return
	}
	dw := telemetry.NewDayWriter(out, reg)
	w.telemetryDays = dw
	w.Sched.EveryDay(23*time.Hour+59*time.Minute, w.Cfg.Days+5, func(int) {
		clk := w.Sched.Clock()
		w.updateGauges()
		// Errors are swallowed here: a broken metrics sink must never
		// abort a simulation run. The writer counts each failed line
		// (telemetry.jsonl.write_errors) and FinalizeTelemetry surfaces
		// the first error at teardown.
		_ = dw.WriteDay(clk.Day(), clk.Now())
	})
}

// OnFinalize registers fn to run when FinalizeTelemetry closes out the
// run. Error-swallowing sinks (the durable event log's sticky
// write/fsync error, for one) register here so a run that silently
// lost durability still reports it at exit.
func (w *World) OnFinalize(fn func() error) {
	w.finalizers = append(w.finalizers, fn)
}

// FinalizeTelemetry closes out the run's observability sinks: it
// refreshes the gauges, writes one final JSONL line (so shutdown
// state — final goroutine count, heap size, scheduler drain — is in the
// series even when the run stopped between daily flushes), runs every
// OnFinalize hook, and returns the first error any of them surfaced.
// A no-op returning nil when neither a daily stream nor finalizers were
// armed.
func (w *World) FinalizeTelemetry() error {
	var first error
	if dw := w.telemetryDays; dw != nil {
		clk := w.Sched.Clock()
		w.updateGauges()
		_ = dw.WriteDay(clk.Day(), clk.Now())
		first = dw.Close()
	}
	for _, fn := range w.finalizers {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TelemetrySummary renders the end-of-run metrics table for the study
// report. Returns "" when the config carries no registry.
func (w *World) TelemetrySummary() string {
	reg := w.Cfg.Telemetry
	if reg == nil {
		return ""
	}
	w.updateGauges()
	s := "== Telemetry summary ==\n\n" + reg.Snapshot().Format()
	// Derived memory-per-account line for the scale arm: heap actually
	// in use over resident account rows (deleted rows stay resident by
	// design — see docs/PERFORMANCE.md, "Scaling to 1M accounts").
	if n := reg.Gauge("world.accounts").Value(); n > 0 {
		heap := reg.Gauge("runtime.heap_inuse").Value()
		s += fmt.Sprintf("\nderived: bytes_per_account %d (heap_inuse %d / accounts %d)\n", heap/n, heap, n)
	}
	return s
}

// updateGauges syncs the event log, so the folds' counters
// (detection.events.*) cover every event emitted so far, and refreshes
// the point-in-time gauges before a snapshot.
// Besides the simulation gauges it samples runtime.MemStats once, so the
// daily JSONL stream and the end-of-run summary carry the allocator's
// trajectory (heap in use, GC cycles, cumulative pause). One ReadMemStats
// per simulated day is far too coarse to perturb the program it measures,
// and gauges are never part of hashed report goldens — see
// docs/DETERMINISM.md.
func (w *World) updateGauges() {
	w.Plat.Log().Sync()
	reg := w.Cfg.Telemetry
	reg.Gauge("sched.pending").Set(int64(w.Sched.Pending()))
	reg.Gauge("sim.day").Set(int64(w.Sched.Clock().Day()))

	reg.Gauge("world.accounts").Set(int64(w.Plat.NumAccounts()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("runtime.heap_alloc").Set(int64(ms.HeapAlloc))
	reg.Gauge("runtime.heap_inuse").Set(int64(ms.HeapInuse))
	reg.Gauge("runtime.gc_cycles").Set(int64(ms.NumGC))
	reg.Gauge("runtime.pause_total_ns").Set(int64(ms.PauseTotalNs))
	// Goroutine count sits next to the MemStats gauges: at one sample per
	// simulated day it is diagnostic (a goroutine leak shows as a
	// climbing line), not a perturbation.
	reg.Gauge("runtime.goroutines").Set(int64(runtime.NumGoroutine()))
}
