package simtest

import (
	"bytes"
	"os"
	"testing"

	"footsteps/internal/persistence"
)

// TestRestoreLegacyV1Snapshot locks in cross-version checkpoint
// compatibility: testdata holds a real FSNAP1 checkpoint (written at
// day 3 of resumeConfig(1) by the pre-FSNAP2 encoder), and a world
// restored from it must replay the exact remaining event bytes of a
// straight-through run — the same resume-equivalence contract the
// current-format snapshots are held to.
func TestRestoreLegacyV1Snapshot(t *testing.T) {
	t.Parallel()
	snap, err := os.ReadFile("testdata/checkpoint-v1-day3.fsnap")
	if err != nil {
		t.Fatalf("read legacy checkpoint: %v", err)
	}
	h, _, err := persistence.DecodeBytes(snap)
	if err != nil {
		t.Fatalf("decode legacy checkpoint: %v", err)
	}
	if h.Version != persistence.VersionV1 {
		t.Fatalf("testdata checkpoint is version %d, want legacy %d", h.Version, persistence.VersionV1)
	}
	if h.Day != 3 {
		t.Fatalf("testdata checkpoint is at day %d, want 3", h.Day)
	}

	cfg := resumeConfig(1)
	full := captureWithSnapshots(t, cfg, nil)
	resumed, _ := captureResumed(t, cfg, snap)
	want := suffixAfter(t, full, h.Now)
	if !bytes.Equal(resumed, want) {
		t.Fatalf("legacy-restored run diverged: %d bytes vs %d-byte suffix", len(resumed), len(want))
	}
}
