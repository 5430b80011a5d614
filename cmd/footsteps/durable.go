package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"

	"footsteps"
	"footsteps/internal/core"
	"footsteps/internal/durable"
	"footsteps/internal/platform"
)

// runDurable is the crash-tolerant lifecycle: the event stream goes
// into a checksummed segment log under -durable DIR, with an atomic
// FSNAP2 checkpoint and manifest swing at every day boundary. With
// -resume the same invocation recovers after a crash — the manifest's
// (checkpoint, segment, offset) triple is validated, the torn tail
// discarded, the world restored, and the remaining days re-driven; the
// reconstructed stream is byte-identical to an uninterrupted run
// (docs/PERSISTENCE.md). -crash-after-op N kills the process at the
// Nth filesystem operation, exercising exactly that recovery path.
func (c *cli) runDurable(cfg footsteps.Config, dir string, resume bool, crashAfterOp uint64, fsyncEvery bool) error {
	if dir == "" {
		return fmt.Errorf("run needs -durable DIR for the segment log")
	}
	var fsys durable.FS = durable.OSFS{}
	if crashAfterOp > 0 {
		fsys = durable.NewKillFS(fsys, crashAfterOp, func() {
			// A real kill, not an error return: recovery must work from
			// whatever bytes were durable, in a fresh process.
			fmt.Fprintf(c.stderr, "footsteps: crash injected at filesystem op %d\n", crashAfterOp)
			os.Exit(137)
		})
	}
	opts := durable.Options{
		Seed:            cfg.Seed,
		Fingerprint:     cfg.Fingerprint(),
		FsyncEveryBatch: fsyncEvery,
		Telemetry:       c.reg,
	}

	var dlog *durable.Log
	var w *core.World
	if resume {
		var err error
		dlog, err = durable.Resume(fsys, dir, opts)
		if err != nil {
			return err
		}
		rec := dlog.Recovery()
		if rec.TornTail != nil {
			fmt.Fprintf(c.stdout, "Torn tail repaired: %v\n", rec.TornTail)
		}
		if rec.DiscardedFrames > 0 {
			fmt.Fprintf(c.stdout, "Discarded %d intact frame(s) past the checkpoint (%d events, re-derived below)\n",
				rec.DiscardedFrames, rec.DiscardedEvents)
		}
		if rec.CheckpointFile == "" {
			fmt.Fprintf(c.stdout, "Resumed %s at genesis: no checkpoint yet, restarting the run\n", dir)
			w = core.NewWorld(cfg)
		} else {
			w, err = core.RestoreWorld(cfg, bytes.NewReader(rec.Checkpoint))
			if err != nil {
				return err
			}
			fmt.Fprintf(c.stdout, "Resumed %s from %s: day %d of %d, %d durable events\n",
				dir, rec.CheckpointFile, rec.CheckpointDay, cfg.Days, rec.Events)
		}
	} else {
		var err error
		dlog, err = durable.Create(fsys, dir, opts)
		if err != nil {
			return err
		}
		w = core.NewWorld(cfg)
		fmt.Fprintf(c.stdout, "Durable run: %d days (seed %d) into %s\n", cfg.Days, cfg.Seed, dir)
	}

	c.telemetryAttach(w)
	w.OnFinalize(dlog.Err)
	w.Plat.Log().Subscribe(func(ev platform.Event) { _ = dlog.Append(ev) })
	if w.DaysRun() == 0 {
		w.RunAll()
	}

	err := w.RunDaysFunc(cfg.Days-w.DaysRun(), func(day int) error {
		if cerr := dlog.Checkpoint(day, w.Snapshot); cerr != nil {
			return cerr
		}
		return dlog.Err()
	})
	if cerr := dlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Reconstruct the stream from the segments on disk and hash it — the
	// same "Stream: ..." line the record command prints, so CI can
	// compare a durable run's hash against the plain capture's.
	h := sha256.New()
	n, err := durable.Reconstruct(fsys, dir, h)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "Stream: %d events, sha256 %x\n", n, h.Sum(nil))
	fmt.Fprintf(c.stdout, "Durable log sealed in %s (verify with `fsevdump -verify %s`)\n", dir, dir)
	c.telemetryReport(w)
	return nil
}
