package simtest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/persistence"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// These tests lock in the resume-equivalence invariant (see
// docs/PERSISTENCE.md): a world restored from a day-N snapshot must
// produce, for the remainder of the window, an FSEV1 event stream
// byte-identical to the corresponding suffix of a straight-through run —
// and must end in byte-identical world state. The comparison is over
// encoded bytes, so any divergence in event content, order, timing, or
// final state fails loudly.

// resumeConfig is smallConfig stretched to eight days so the snapshot
// days {1, 3, 7} from the issue's matrix all fall inside the window.
func resumeConfig(seed uint64) core.Config {
	cfg := smallConfig(seed)
	cfg.Days = 8
	return cfg
}

// captureWithSnapshots runs a full world day by day, writing the FSEV1
// stream and, at each requested day boundary, an FSNAP1 snapshot.
func captureWithSnapshots(t *testing.T, cfg core.Config, snaps map[int]*bytes.Buffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	w := core.NewWorld(cfg)
	wr.Attach(w.Plat.Log())
	w.RunAll()
	for d := 1; d <= cfg.Days; d++ {
		if err := w.RunDays(1); err != nil {
			t.Fatalf("run day %d: %v", d, err)
		}
		if out, ok := snaps[d]; ok {
			if err := w.Snapshot(out); err != nil {
				t.Fatalf("snapshot day %d: %v", d, err)
			}
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// captureResumed restores a world from snapshot bytes, attaches a fresh
// recorder, runs out the window, and returns the resumed FSEV1 stream
// plus a final end-of-run snapshot for state comparison.
func captureResumed(t *testing.T, cfg core.Config, snap []byte) (stream, finalState []byte) {
	t.Helper()
	w, err := core.RestoreWorld(cfg, bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	wr.Attach(w.Plat.Log())
	if err := w.RunDays(cfg.Days - w.DaysRun()); err != nil {
		t.Fatalf("run resumed days: %v", err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var final bytes.Buffer
	if err := w.Snapshot(&final); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	return buf.Bytes(), final.Bytes()
}

// suffixAfter re-encodes, with a fresh writer (and therefore a fresh
// string table, matching a resumed recorder), the events of a full
// stream that happen strictly after the cut instant.
func suffixAfter(t *testing.T, full []byte, cut time.Time) []byte {
	t.Helper()
	r, err := eventio.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("read full stream: %v", err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("decode full stream: %v", err)
	}
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatalf("new suffix writer: %v", err)
	}
	n := 0
	for _, ev := range evs {
		if !ev.Time.After(cut) {
			continue
		}
		if err := wr.Write(ev); err != nil {
			t.Fatalf("re-encode suffix: %v", err)
		}
		n++
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush suffix: %v", err)
	}
	if n < 100 {
		t.Fatalf("suffix after %v has only %d events; comparison would be vacuous", cut, n)
	}
	return buf.Bytes()
}

// snapshotInstant reads the cut instant out of a snapshot's header.
func snapshotInstant(t *testing.T, snap []byte) time.Time {
	t.Helper()
	h, _, err := persistence.DecodeBytes(snap)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return h.Now
}

// TestResumeEquivalence is the tentpole invariant at its simplest: for
// snapshots taken at days 1, 3, and 7 of a straight-through run, the
// restored world replays the exact remaining event bytes and lands on
// the exact final state.
func TestResumeEquivalence(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(1)
	snaps := map[int]*bytes.Buffer{1: {}, 3: {}, 7: {}}
	baseline := captureWithSnapshots(t, cfg, snaps)
	if n := countEvents(t, baseline); n < 1000 {
		t.Fatalf("baseline produced only %d events; comparison would be vacuous", n)
	}
	// The straight-through day-chunked run must match Capture's single
	// RunFor, otherwise the baseline itself is suspect.
	if whole := Capture(cfg); !bytes.Equal(whole, baseline) {
		t.Fatalf("day-chunked run diverged from single-run capture: hash %s != %s",
			Hash(baseline), Hash(whole))
	}
	for day, snap := range snaps {
		day, snap := day, snap
		t.Run(fmt.Sprintf("day=%d", day), func(t *testing.T) {
			t.Parallel()
			want := suffixAfter(t, baseline, snapshotInstant(t, snap.Bytes()))
			got, _ := captureResumed(t, cfg, snap.Bytes())
			if !bytes.Equal(want, got) {
				t.Errorf("resumed stream diverged from straight-through suffix: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
		})
	}
}

// TestResumeAcrossReplicas restores one day-3 snapshot into three
// replica worlds, in parallel, and demands the identical suffix and final
// state from each: restoring shares no state between worlds in one
// process.
func TestResumeAcrossReplicas(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(2)
	snaps := map[int]*bytes.Buffer{3: {}}
	baseline := captureWithSnapshots(t, cfg, snaps)
	snap := snaps[3].Bytes()
	want := suffixAfter(t, baseline, snapshotInstant(t, snap))

	// Final state after a straight-through resumed run anchors the
	// replicas' state comparison.
	refStream, refFinal := captureResumed(t, cfg, snap)
	if !bytes.Equal(want, refStream) {
		t.Fatalf("reference resume diverged: hash %s != %s", Hash(refStream), Hash(want))
	}

	for replica := 1; replica <= 3; replica++ {
		t.Run(fmt.Sprintf("replica=%d", replica), func(t *testing.T) {
			t.Parallel()
			got, final := captureResumed(t, cfg, snap)
			if !bytes.Equal(want, got) {
				t.Errorf("resumed stream diverged: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
			if !bytes.Equal(refFinal, final) {
				t.Errorf("final world state diverged: hash %s != %s (lengths %d vs %d)",
					Hash(final), Hash(refFinal), len(final), len(refFinal))
			}
		})
	}
}

// TestResumeEquivalenceFaulted repeats the invariant with the mixed
// fault scenario live: retry queues, breaker positions, and fault
// windows must all survive the checkpoint. The snapshot is restored into
// two replica worlds in parallel; their subtest names are the worker
// counts they ran with when planning had a worker pool, kept so the test
// IDs stay stable.
func TestResumeEquivalenceFaulted(t *testing.T) {
	t.Parallel()
	cfg := faultedConfig(3)
	cfg.Days = 8
	snaps := map[int]*bytes.Buffer{3: {}}
	baseline := captureWithSnapshots(t, cfg, snaps)
	snap := snaps[3].Bytes()
	want := suffixAfter(t, baseline, snapshotInstant(t, snap))
	for _, replica := range []string{"workers=0", "workers=4"} {
		t.Run(replica, func(t *testing.T) {
			t.Parallel()
			if got, _ := captureResumed(t, cfg, snap); !bytes.Equal(want, got) {
				t.Errorf("faulted resume diverged: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
		})
	}
}

// TestRestoreRejectsMismatch covers the guarded failure paths: a
// snapshot restored against the wrong seed or a semantically different
// config must fail with a typed MismatchError naming the field, never
// silently produce a diverging world.
func TestRestoreRejectsMismatch(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(4)
	snaps := map[int]*bytes.Buffer{1: {}}
	captureWithSnapshots(t, cfg, snaps)
	snap := snaps[1].Bytes()

	wrongSeed := cfg
	wrongSeed.Seed = 99
	var mm *persistence.MismatchError
	if _, err := core.RestoreWorld(wrongSeed, bytes.NewReader(snap)); !errors.As(err, &mm) || mm.Field != "seed" {
		t.Errorf("wrong seed: want MismatchError{Field: seed}, got %v", err)
	}

	wrongCfg := cfg
	wrongCfg.Days = cfg.Days + 1
	mm = nil
	if _, err := core.RestoreWorld(wrongCfg, bytes.NewReader(snap)); !errors.As(err, &mm) || mm.Field != "config fingerprint" {
		t.Errorf("wrong config: want MismatchError{Field: config fingerprint}, got %v", err)
	}

	// Observability knobs are excluded from the fingerprint on purpose.
	obsCfg := cfg
	obsCfg.Telemetry = telemetry.NewRegistry()
	tr, err := trace.New(io.Discard, cfg.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	obsCfg.Trace = tr
	if _, err := core.RestoreWorld(obsCfg, bytes.NewReader(snap)); err != nil {
		t.Errorf("telemetry and tracing must not invalidate a snapshot, got %v", err)
	}

	// A truncated checkpoint must surface a TruncatedError with the
	// failing offset, like fsevdump does for event logs.
	var te *persistence.TruncatedError
	if _, err := core.RestoreWorld(cfg, bytes.NewReader(snap[:len(snap)/2])); !errors.As(err, &te) {
		t.Errorf("truncated snapshot: want TruncatedError, got %v", err)
	} else if te.Offset <= 0 || te.Offset > int64(len(snap)) {
		t.Errorf("truncated snapshot: implausible offset %d", te.Offset)
	}
}

// TestRestoreRejectsCorruptIDs feeds RestoreWorld snapshots that decode
// cleanly but carry IDs that break the ID-addressed tables' invariants —
// a duplicate, an ID past its allocator's counter, IDs out of order —
// and demands a typed *persistence.StateError, never a panic.
func TestRestoreRejectsCorruptIDs(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(4)
	cfg.GraphWrites = true
	snaps := map[int]*bytes.Buffer{1: {}}
	captureWithSnapshots(t, cfg, snaps)
	snap := snaps[1].Bytes()
	if _, err := core.RestoreWorld(cfg, bytes.NewReader(snap)); err != nil {
		t.Fatalf("clean snapshot: %v", err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(*persistence.WorldState)
	}{
		{"duplicate platform account", func(st *persistence.WorldState) {
			st.Platform.Accounts[1].ID = st.Platform.Accounts[0].ID
		}},
		{"duplicate graph account", func(st *persistence.WorldState) {
			st.Graph.Accounts[1].ID = st.Graph.Accounts[0].ID
		}},
		{"graph account past counter", func(st *persistence.WorldState) {
			st.Graph.Accounts[len(st.Graph.Accounts)-1].ID = st.Graph.NextAcct + 1
		}},
		{"graph post past counter", func(st *persistence.WorldState) {
			st.Graph.Posts[len(st.Graph.Posts)-1].ID = st.Graph.NextPost + 1
		}},
		{"graph counter past platform accounts", func(st *persistence.WorldState) {
			st.Graph.NextAcct += 1 << 30
		}},
		{"descending platform accounts", func(st *persistence.WorldState) {
			a := st.Platform.Accounts
			a[0], a[1] = a[1], a[0]
		}},
		{"descending graph accounts", func(st *persistence.WorldState) {
			a := st.Graph.Accounts
			a[0], a[1] = a[1], a[0]
		}},
	} {
		h, st, err := persistence.DecodeBytes(snap)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(st)
		var se *persistence.StateError
		if _, err := core.RestoreWorld(cfg, bytes.NewReader(persistence.EncodeBytes(h, st))); !errors.As(err, &se) {
			t.Errorf("%s: want *persistence.StateError, got %v", tc.name, err)
		}
	}
}
