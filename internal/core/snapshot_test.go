package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"footsteps/internal/aas"
	"footsteps/internal/persistence"
	"footsteps/internal/platform"
)

// allocBudgetSnapshot bounds the allocations of one snapshot into a
// warm buffer: each of the ~25 row lists costs a few (its row closures,
// its row value, a reused widening or flattening buffer), each section
// header a sorted key list, and the envelope its slices — 112 measured
// for the world below, whatever its number of accounts. Raise it only
// with a profile showing why (see docs/PERFORMANCE.md).
const allocBudgetSnapshot = 144

// TestAllocBudgetSnapshot pins the checkpoint write path's allocation
// behaviour: writing a 2,000-account TestConfig world's snapshot into a
// reused buffer allocates per section, not per account or customer.
func TestAllocBudgetSnapshot(t *testing.T) {
	cfg := TestConfig()
	cfg.OrganicPopulation = 2000
	cfg.GraphWrites = true
	w := NewWorld(cfg)
	w.RunAll()
	if err := w.RunDays(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := w.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if accounts := w.Plat.NumAccounts(); got > allocBudgetSnapshot {
		t.Errorf("World.Snapshot allocates %.0f per snapshot of %d accounts, budget %d — a per-row allocation crept into a section source",
			got, accounts, allocBudgetSnapshot)
	}
}

// allocBudgetRestore bounds the allocations of one RestoreWorld of the
// snapshot below. 12,575 are measured, 11,594 of them the rebuild
// (construction and RunAll, whose hourly automation ticks dominate), the
// rest the decoded sections: per section, per shared string or list
// array, per customer and per member session. One allocation per account
// row would add ~3,900; decoding each row, its strings and its lists into
// heap objects of their own measured 64,812. Raise it only with a profile
// showing why (see docs/PERFORMANCE.md).
const allocBudgetRestore = 14_000

// TestAllocBudgetRestore pins the restore path's allocation behaviour:
// restoring a 2,000-account TestConfig world with graph writes allocates
// per section or shared array, not per account or post row.
func TestAllocBudgetRestore(t *testing.T) {
	if raceEnabled {
		t.Skip("table growth allocates under the race detector")
	}
	cfg := TestConfig()
	cfg.OrganicPopulation = 2000
	cfg.GraphWrites = true
	w := NewWorld(cfg)
	w.RunAll()
	if err := w.RunDays(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	got := testing.AllocsPerRun(3, func() {
		if _, err := RestoreWorld(cfg, bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	})
	if accounts := w.Plat.NumAccounts(); got > allocBudgetRestore {
		t.Errorf("RestoreWorld allocates %.0f per restore of %d accounts, budget %d — a per-row allocation crept into decoding or committing a section",
			got, accounts, allocBudgetRestore)
	}
}

// TestAllocBudgetLyingCount feeds RestoreWorld a sub-100-byte FSNAP2
// stream whose platform section claims 2^26 account rows. It must fail
// with a *persistence.TruncatedError, having allocated no more than a
// small multiple of its input: the staged tables are sized from counts
// bounded by the bytes left in the input, never from the raw prefix,
// and nothing is built before the body has decoded.
func TestAllocBudgetLyingCount(t *testing.T) {
	cfg := TestConfig()
	var e persistence.Encoder
	persistence.WriteHeader(&e, persistence.Header{
		Version: persistence.Version, Seed: cfg.Seed, Fingerprint: cfg.Fingerprint(), Day: 1,
	})
	e.Raw(make([]byte, 40)) // root RNG state
	e.U64(0)                // no address allocators
	e.U64(0)                // platform post counter
	e.U64(0)                // event sequence
	e.U64(1 << 26)          // account rows claimed
	data := e.Bytes()
	if len(data) >= 100 {
		t.Fatalf("lying input is %d bytes, want under 100", len(data))
	}

	// TotalAlloc is process-wide, so one stray runtime allocation can land
	// inside a single measured restore. The restore is deterministic: take
	// the smallest of five, which a real regression raises in every run.
	var alloc uint64 = math.MaxUint64
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := RestoreWorld(cfg, bytes.NewReader(data))
		runtime.ReadMemStats(&after)

		var te *persistence.TruncatedError
		if w != nil || !errors.As(err, &te) {
			t.Fatalf("want a *persistence.TruncatedError and no world, got %v", err)
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	const multiple = 64
	if alloc > multiple*uint64(len(data)) {
		t.Errorf("restoring a %d-byte lying snapshot allocated %d bytes, over %d× its size", len(data), alloc, multiple)
	}
}

// fuzzRestoreConfig is the world FuzzRestoreNoPanic restores into:
// TestConfig with graph writes, so the graph section carries follows,
// likes and comments.
func fuzzRestoreConfig() Config {
	cfg := TestConfig()
	cfg.GraphWrites = true
	return cfg
}

// FuzzRestoreNoPanic feeds RestoreWorld mutated snapshots. Decoding
// writes straight into staged tables, so the never-panic hardening has
// to cover that code as well as the byte reader: every input must give
// either a typed error and no world, or a world that re-snapshots to
// exactly its input. (A legacy FSNAP1 input re-snapshots as FSNAP2; that
// snapshot must then restore and re-snapshot to itself.) The seeds are
// a real day-1 snapshot, the same world after a day of honeypot
// training, the first's truncations, and the ID corruptions of the
// simtest corrupt-ID cases.
func FuzzRestoreNoPanic(f *testing.F) {
	cfg := fuzzRestoreConfig()
	w := NewWorld(cfg)
	w.RunAll()
	if err := w.RunDays(1); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	valid := bytes.Clone(snap.Bytes())
	f.Add(valid)
	// Honeypot training fills the honeypot section too.
	if _, err := w.TrainClassifier(1); err != nil {
		f.Fatal(err)
	}
	snap.Reset()
	if err := w.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(snap.Bytes()))
	for _, cut := range []int{0, 7, 30, len(valid) / 8, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, corrupt := range []func(*persistence.WorldState){
		func(st *persistence.WorldState) { st.Platform.Accounts[1].ID = st.Platform.Accounts[0].ID },
		func(st *persistence.WorldState) { st.Graph.Accounts[1].ID = st.Graph.Accounts[0].ID },
		func(st *persistence.WorldState) {
			st.Graph.Accounts[len(st.Graph.Accounts)-1].ID = st.Graph.NextAcct + 1
		},
		func(st *persistence.WorldState) { st.Graph.Posts[len(st.Graph.Posts)-1].ID = st.Graph.NextPost + 1 },
		func(st *persistence.WorldState) { st.Graph.NextAcct += 1 << 30 },
		func(st *persistence.WorldState) {
			a := st.Platform.Accounts
			a[0], a[1] = a[1], a[0]
		},
		func(st *persistence.WorldState) {
			a := st.Graph.Accounts
			a[0], a[1] = a[1], a[0]
		},
	} {
		h, st, err := persistence.DecodeBytes(valid)
		if err != nil {
			f.Fatal(err)
		}
		corrupt(st)
		f.Add(persistence.EncodeBytes(h, st))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := RestoreWorld(cfg, bytes.NewReader(data))
		if err != nil {
			if w != nil {
				t.Fatalf("RestoreWorld returned a world with error %v", err)
			}
			var te *persistence.TruncatedError
			var se *persistence.StateError
			var me *persistence.MismatchError
			if !errors.As(err, &te) && !errors.As(err, &se) && !errors.As(err, &me) && !errors.Is(err, persistence.ErrBadMagic) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := w.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if h, _ := persistence.ReadHeader(persistence.NewDecoder(data)); h.Version == persistence.VersionV1 {
			w2, err := RestoreWorld(cfg, bytes.NewReader(again.Bytes()))
			if err != nil {
				t.Fatalf("upgraded FSNAP1 snapshot does not restore: %v", err)
			}
			data = again.Bytes()
			again.Reset()
			if err := w2.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("restored world re-snapshots to %d bytes that differ from its %d-byte input", again.Len(), len(data))
		}
	})
}

// TestRestoreRejectsRowsOutOfRange: honeypots are addressed by account
// ID and service adaptation by action type, so a snapshot listing a
// honeypot the platform does not list, or adapting an action type that
// does not exist, restores to a StateError: not a table sized by a
// corrupt ID, not an index panic.
func TestRestoreRejectsRowsOutOfRange(t *testing.T) {
	cfg := fuzzRestoreConfig()
	w := NewWorld(cfg)
	w.RunAll()
	if _, err := w.TrainClassifier(1); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	valid := snap.Bytes()
	if _, err := RestoreWorld(cfg, bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*persistence.WorldState)
	}{
		{"honeypot-past-accounts", func(st *persistence.WorldState) {
			st.Honeypots.Accounts[0].ID = platform.AccountID(len(st.Platform.Accounts) + 1)
		}},
		{"honeypot-huge-id", func(st *persistence.WorldState) { st.Honeypots.Accounts[0].ID = 1 << 62 }},
		{"honeypot-zero-id", func(st *persistence.WorldState) { st.Honeypots.Accounts[0].ID = 0 }},
		{"adapt-unknown-type", func(st *persistence.WorldState) {
			c := &st.Recip[0].State.Base.Customers[0]
			c.Adapt = append(c.Adapt, aas.AdaptState{Action: platform.ActionLogin + 1})
		}},
		{"adapt-negative-type", func(st *persistence.WorldState) {
			c := &st.Recip[0].State.Base.Customers[0]
			c.Adapt = append([]aas.AdaptState{{Action: -1}}, c.Adapt...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, st, err := persistence.DecodeBytes(valid)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Honeypots.Accounts) == 0 || len(st.Recip) == 0 || len(st.Recip[0].State.Base.Customers) == 0 {
				t.Fatal("snapshot has no honeypots or customers to corrupt")
			}
			tc.corrupt(st)
			got, err := RestoreWorld(cfg, bytes.NewReader(persistence.EncodeBytes(h, st)))
			var se *persistence.StateError
			if got != nil || !errors.As(err, &se) {
				t.Fatalf("restore gave world %v, error %v; want a StateError", got != nil, err)
			}
		})
	}
}
