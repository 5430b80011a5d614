package simtest

import (
	"bytes"
	"testing"

	"footsteps/internal/core"
)

// noReuseConfig is smallConfig with every scratch-buffer pool disabled:
// intent buffers, customer filter slices and the per-customer hashtag
// query buffer all allocate fresh per tick, exactly as the pre-pooling
// code did.
func noReuseConfig(seed uint64) core.Config {
	cfg := smallConfig(seed)
	cfg.DisableScratchReuse = true
	return cfg
}

// TestScratchReuseStreamInvariance is the pooling safety contract: buffer
// reuse across ticks is a pure memory optimization, so the event stream
// with pooling on (the default) must be byte-identical to the stream with
// pooling off. A divergence means a pooled buffer
// leaked state across ticks — a missed [:0] truncation, a stale entry
// surviving a clear, or an epoch-mark collision in the collusion dedup.
func TestScratchReuseStreamInvariance(t *testing.T) {
	t.Parallel()
	want := Capture(noReuseConfig(1))
	if n := countEvents(t, want); n < 1000 {
		t.Fatalf("pool-disabled run produced only %d events; comparison would be vacuous", n)
	}
	if pooled := Capture(smallConfig(1)); !bytes.Equal(want, pooled) {
		t.Errorf("pooled stream diverged from pool-disabled run: %s != %s (lengths %d vs %d)",
			Hash(pooled), Hash(want), len(pooled), len(want))
	}
}

// TestScratchReuseFaultedStreamInvariance repeats the pooling on/off
// comparison with the mixed fault scenario active: retries re-enter the
// resilience layer with stored Request values, so this pins that the
// closure-free retry path reads identical state whether or not the
// planning buffers that produced the request were pooled.
func TestScratchReuseFaultedStreamInvariance(t *testing.T) {
	t.Parallel()
	noReuse := faultedConfig(1)
	noReuse.DisableScratchReuse = true
	want := Capture(noReuse)
	if n := countEvents(t, want); n < 1000 {
		t.Fatalf("pool-disabled faulted run produced only %d events; comparison would be vacuous", n)
	}
	if pooled := Capture(faultedConfig(1)); !bytes.Equal(want, pooled) {
		t.Errorf("pooled faulted stream diverged: %s != %s (lengths %d vs %d)",
			Hash(pooled), Hash(want), len(pooled), len(want))
	}
}
