package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"footsteps"
	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/persistence"
)

// runRecord drives the canonical lifecycle (the one the determinism
// harness pins) with checkpointing live: the full FSEV1 stream goes to
// the -record file, and a snapshot lands in ckptDir every ckptEvery
// days. The resulting artifacts are what replay consumes.
func (c *cli) runRecord(cfg footsteps.Config, record, ckptDir string, ckptEvery int) error {
	w := core.NewWorld(cfg)
	c.telemetryAttach(w)
	h := sha256.New()
	var out io.Writer = h
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(f, h)
	}
	wr, err := eventio.NewWriter(out)
	if err != nil {
		return err
	}
	wr.Attach(w.Plat.Log())
	w.RunAll()
	fmt.Fprintf(c.stdout, "Recording %d days (seed %d)...\n", cfg.Days, cfg.Seed)
	var snap bytes.Buffer // reused from one checkpoint to the next
	err = w.RunDaysFunc(cfg.Days, func(day int) error {
		if ckptEvery <= 0 || ckptDir == "" || day%ckptEvery != 0 {
			return nil
		}
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return err
		}
		snap.Reset()
		if err := w.Snapshot(&snap); err != nil {
			return err
		}
		// The file lands atomically (tmp + fsync + rename + dir fsync), so
		// a crash mid-write never leaves a half-written snapshot under the
		// final name.
		return persistence.AtomicWriteFile(filepath.Join(ckptDir, fmt.Sprintf("checkpoint-day-%03d.fsnap", day)), snap.Bytes())
	})
	if err != nil {
		return err
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "Stream: %d events, sha256 %x\n", wr.Count(), h.Sum(nil))
	if record != "" {
		fmt.Fprintf(c.stdout, "FSEV1 capture written to %s\n", record)
	}
	return nil
}

// runReplay reconstructs simulation state and re-drives the timeline,
// verifying it against a recorded FSEV1 log.
//
// With -from, the state comes out of an FSNAP checkpoint: the world is
// rebuilt, fast-forwarded, and resumed for the remaining days. With
// -against, the resumed stream is byte-compared to the corresponding
// suffix of the original log — the CLI face of the resume-equivalence
// invariant (docs/PERSISTENCE.md). Without -from, the whole run is
// re-driven from genesis and compared against the full log. The flags must describe the same seed and semantic config as the
// original run; mismatches fail with a typed error before any work.
func (c *cli) runReplay(cfg footsteps.Config, from, against, record string) error {
	var w *core.World
	var cut time.Time
	if from != "" {
		var err error
		w, err = core.RestoreFile(cfg, from)
		if err != nil {
			return err
		}
		// RestoreFile has checked the snapshot's seed and fingerprint
		// against cfg, so the world and cfg describe its header.
		cut = w.SnapshotInstant()
		fmt.Fprintf(c.stdout, "Restored %s: day %d of %d (seed %d, fingerprint %#x)\n",
			from, w.DaysRun(), cfg.Days, cfg.Seed, cfg.Fingerprint())
	} else {
		w = core.NewWorld(cfg)
		fmt.Fprintf(c.stdout, "Re-driving from genesis: %d days (seed %d)\n", cfg.Days, cfg.Seed)
	}

	days := cfg.Days - w.DaysRun()

	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		return err
	}
	wr.Attach(w.Plat.Log())
	if from == "" {
		w.RunAll()
	}
	if err := w.RunDays(days); err != nil {
		return err
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "Replayed %d days: %d events, stream sha256 %x\n",
		days, wr.Count(), sha256.Sum256(buf.Bytes()))

	if record != "" {
		if err := os.WriteFile(record, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "Resumed FSEV1 capture written to %s\n", record)
	}

	if against == "" {
		return nil
	}
	want, err := suffixOf(against, cut, w.SnapshotInstant())
	if err != nil {
		return err
	}
	return c.verifyAgainst("Replay", against, want, buf.Bytes())
}

// verifyAgainst checks a replayed stream against the capture it must
// reproduce, and fails with DIVERGED at the first differing byte. what
// names the replay in the report ("Replay", "Ingress replay").
func (c *cli) verifyAgainst(what, against string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		off, idx := firstDivergence(want, got)
		return fmt.Errorf("%s DIVERGED from %s: first difference at byte offset %d, after %d intact events; sha256 %x vs %x (%d vs %d bytes)",
			strings.ToLower(what), against, off, idx, sha256.Sum256(got), sha256.Sum256(want), len(got), len(want))
	}
	fmt.Fprintf(c.stdout, "%s matches %s byte-for-byte.\n", what, against)
	return nil
}

// firstDivergence locates the first byte where two FSEV1 streams
// disagree (the common length, if one is a strict prefix) and counts
// the events fully decoded from the shared prefix — the coordinates a
// divergence hunt starts from, instead of just two hashes.
func firstDivergence(want, got []byte) (int64, uint64) {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	off := int64(n)
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			off = int64(i)
			break
		}
	}
	var events uint64
	if r, err := eventio.NewReader(bytes.NewReader(want[:off])); err == nil {
		for {
			if _, err := r.Next(); err != nil {
				break // the cut mid-record is expected; the count is what matters
			}
		}
		events = r.Events()
	}
	return off, events
}

// suffixOf re-encodes, with a fresh string table, the events of a
// recorded log that fall after the cut and at or before the end instant
// — exactly what a resumed recorder would have captured.
func suffixOf(path string, cut, end time.Time) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := eventio.NewReader(f)
	if err != nil {
		return nil, err
	}
	evs, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		if !ev.Time.After(cut) || ev.Time.After(end) {
			continue
		}
		if err := wr.Write(ev); err != nil {
			return nil, err
		}
	}
	if err := wr.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
