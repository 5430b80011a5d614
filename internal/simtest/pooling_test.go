package simtest

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"footsteps/internal/core"
)

// checkPooledGolden captures cfg with every planning scratch pool in use
// and compares the stream to the sha256 and length of a pool-free
// capture of the same config.
func checkPooledGolden(t *testing.T, cfg core.Config, wantHash string, wantLen int) {
	t.Helper()
	got := Capture(cfg)
	if n := countEvents(t, got); n < 1000 {
		t.Fatalf("run produced only %d events; the comparison would be vacuous", n)
	}
	sum := sha256.Sum256(got)
	if gotHash := hex.EncodeToString(sum[:]); len(got) != wantLen || gotHash != wantHash {
		t.Errorf("pooled stream diverged from the pool-free golden:\n got  %s (len %d)\n want %s (len %d)",
			gotHash, len(got), wantHash, wantLen)
	}
}

// TestScratchReuseStreamInvariance is the pooling safety contract: buffer
// reuse across ticks is a pure memory optimization, so the pooled event
// stream must be byte-identical to the stream the same config produced
// with every planning pool off (intent buffers, customer filter slices
// and the posting buffer allocated fresh per tick). A divergence means a
// pooled buffer leaked state across ticks — a missed [:0] truncation, a
// stale entry surviving a clear, or an epoch-mark collision in the
// collusion dedup. Seed 7, because TestFaultsOffGoldenStream already pins
// seed 1 to its pre-pooling bytes.
//
// The golden was recorded from a pool-free capture before the pool-off
// switch was deleted (CHANGES.md has the command). A change meant to move
// the stream re-records it from the pooled capture.
func TestScratchReuseStreamInvariance(t *testing.T) {
	t.Parallel()
	checkPooledGolden(t, smallConfig(7),
		"b346efb167858da716f3f2e3e8d87f4afae4dcd1a0fc2e9c3384ffe0acde04cd", 620355)
}

// TestScratchReuseFaultedStreamInvariance repeats the pooled-vs-pool-free
// comparison with the mixed fault scenario active: retries re-enter the
// resilience layer with stored Request values, so this pins that the
// closure-free retry path reads the state a pool-free run read.
func TestScratchReuseFaultedStreamInvariance(t *testing.T) {
	t.Parallel()
	checkPooledGolden(t, faultedConfig(1),
		"8cb8043d19e72de2ff66ff819c914a0e2b7748320a007433de7a2d93c6d9f4bc", 650654)
}
