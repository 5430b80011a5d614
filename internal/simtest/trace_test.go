package simtest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/trace"
)

// tracedCapture runs cfg with a live FTRC1 tracer at sample rate
// 1/sampleN and returns the FSEV1 event stream plus the recorded trace
// bytes. The tracer writes into memory, so these tests exercise the
// full encode path without touching disk.
func tracedCapture(t *testing.T, cfg core.Config, sampleN uint64) ([]byte, []byte) {
	t.Helper()
	var traceBuf bytes.Buffer
	tr, err := trace.New(&traceBuf, cfg.Seed, sampleN)
	if err != nil {
		t.Fatalf("trace.New: %v", err)
	}
	cfg.Trace = tr
	stream := Capture(cfg)
	if err := tr.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	return stream, traceBuf.Bytes()
}

// TestTraceInertness is the tentpole invariant for span tracing: a world
// recording a full FTRC1 trace — every request span, every tick section,
// every instant — produces the byte-identical FSEV1 event stream of an
// untraced world. The tracer hooks sit directly on the platform's request
// path and the step engine's section barrier, so any feedback (an RNG
// draw, a reordered apply, an extra allocation observed through
// timing-sensitive code) diverges the bytes and fails here.
func TestTraceInertness(t *testing.T) {
	t.Parallel()
	want := Capture(smallConfig(1))
	if n := countEvents(t, want); n < 1000 {
		t.Fatalf("baseline run produced only %d events; comparison would be vacuous", n)
	}
	got, traced := tracedCapture(t, smallConfig(1), 1)
	if !bytes.Equal(want, got) {
		t.Errorf("tracing changed the stream: %s != %s (lengths %d vs %d)",
			Hash(got), Hash(want), len(got), len(want))
	}
	if len(traced) == 0 {
		t.Error("tracer wrote nothing; inertness comparison is vacuous")
	}
}

// TestTraceInertnessSampled repeats the inertness check at downsampled
// rates. Sampling decisions are pure functions of (seed, span identity),
// and crucially the per-tick sequence counter advances for unsampled
// spans too — so a 1/N trace must leave the stream untouched exactly
// like a full trace does.
func TestTraceInertnessSampled(t *testing.T) {
	t.Parallel()
	want := Capture(smallConfig(9))
	for _, sampleN := range []uint64{16, 1024} {
		got, traced := tracedCapture(t, smallConfig(9), sampleN)
		if !bytes.Equal(want, got) {
			t.Errorf("sample=1/%d: tracing changed the stream: %s != %s (lengths %d vs %d)",
				sampleN, Hash(got), Hash(want), len(got), len(want))
		}
		if len(traced) == 0 {
			t.Errorf("sample=1/%d: tracer wrote nothing", sampleN)
		}
	}
}

// TestTraceInertnessFaulted runs the inertness check with the mixed
// fault scenario live: fault verdicts, AAS retry/backoff instants, and
// breaker-transition spans all fire, and none of them may perturb the
// faulted timeline.
func TestTraceInertnessFaulted(t *testing.T) {
	t.Parallel()
	want := Capture(faultedConfig(1))
	got, traced := tracedCapture(t, faultedConfig(1), 1)
	if !bytes.Equal(want, got) {
		t.Errorf("tracing changed the faulted stream: %s != %s (lengths %d vs %d)",
			Hash(got), Hash(want), len(got), len(want))
	}
	if len(traceIdentities(t, traced)) == 0 {
		t.Error("faulted trace empty")
	}
}

// traceIdentities decodes a trace stream down to its deterministic
// identity content: everything except the wall-clock timing fields
// (Start, Wall, per-stage Ns), rendered as one string per span in
// stream order.
func traceIdentities(t *testing.T, data []byte) []string {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("trace header: %v", err)
	}
	var out []string
	for {
		sp, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("trace decode at span %d: %v", r.Spans(), err)
		}
		key := fmt.Sprintf("t=%d sh=%d seq=%d par=%x k=%d a=%d c=%d actor=%d tgt=%d post=%d asn=%d v=%d",
			sp.Tick, sp.Shard, sp.Seq, sp.Parent, sp.Kind, sp.Action, sp.Code,
			sp.Actor, sp.Target, sp.Post, sp.ASN, sp.Value)
		for _, st := range sp.Stages {
			key += fmt.Sprintf(" %d:%d", st.Stage, st.Verdict)
		}
		out = append(out, key)
	}
	return out
}

// TestTraceIdentityStable pins span identity from run to run: the
// ordered sequence of identity tuples — tick, shard, seq, parent, kind,
// verdicts, payload — must be identical across two fresh runs of the
// same config. Only the wall-clock timing fields may differ.
func TestTraceIdentityStable(t *testing.T) {
	t.Parallel()
	_, first := tracedCapture(t, smallConfig(7), 1)
	want := traceIdentities(t, first)
	if len(want) < 1000 {
		t.Fatalf("trace has only %d spans; comparison would be vacuous", len(want))
	}
	_, second := tracedCapture(t, smallConfig(7), 1)
	got := traceIdentities(t, second)
	if len(got) != len(want) {
		t.Fatalf("span count diverged across runs: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d identity diverged across runs:\n  first:  %s\n  second: %s", i, want[i], got[i])
		}
	}
}

// TestTraceSampleSubset pins the sampler's subset property end to end: a
// 1/N trace of a run is exactly the identity-subset of the 1/1 trace
// that the deterministic sampler selects — same spans, same order, no
// extras. This is what makes downsampled traces comparable across runs
// and machines.
func TestTraceSampleSubset(t *testing.T) {
	t.Parallel()
	_, full := tracedCapture(t, smallConfig(13), 1)
	fullIDs := traceIdentities(t, full)
	seen := make(map[string]int, len(fullIDs))
	for _, k := range fullIDs {
		seen[k]++
	}
	_, sampled := tracedCapture(t, smallConfig(13), 64)
	sampledIDs := traceIdentities(t, sampled)
	if len(sampledIDs) == 0 {
		t.Fatal("1/64 trace is empty; subset check is vacuous")
	}
	if len(sampledIDs) >= len(fullIDs) {
		t.Fatalf("1/64 trace (%d spans) not smaller than full trace (%d spans)", len(sampledIDs), len(fullIDs))
	}
	for i, k := range sampledIDs {
		if seen[k] == 0 {
			t.Fatalf("sampled span %d not present in the full trace: %s", i, k)
		}
		seen[k]--
	}
}
