package simtest

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"footsteps/internal/core"
)

// scaleConfig sizes a world by organic population: the services stay at
// unit-test scale (the business sim is driven by its customer pools,
// not the bystander crowd), so memory growth tracks the account tables,
// adjacency chunks, and per-account tallies the struct-of-arrays layout
// is accountable for.
func scaleConfig(accounts, days int) core.Config {
	cfg := core.TestConfig()
	cfg.Days = days
	cfg.OrganicPopulation = accounts
	return cfg
}

// scaleSmokeHeapBudget bounds runtime.HeapAlloc after the 100k-account,
// 7-day smoke world finishes, in bytes. The struct-of-arrays layout
// measures ~580 B/account live (accounts, posts, graph adjacency, and
// event-log bookkeeping together ≈ 55 MiB); the 256 MiB budget leaves
// room for GC timing, and the object ceiling below, not this budget,
// catches a return to per-account heap objects. Raise only with a heap
// profile — see docs/PERFORMANCE.md.
const scaleSmokeHeapBudget = 256 << 20

// scaleSmokeObjectCeiling bounds the live heap objects per account
// right after the 100k-account smoke world is built, and again after
// its week-old snapshot is restored. A built world keeps its accounts
// in table cells: about 0.07 objects per account are measured, the
// run-time's and the test's own objects included. Per-row usernames,
// posts slices, member records and RNG streams made it 5.1; any one of
// them back would add 1. A restored world cuts its strings and per-row
// lists from shared chunks; decoding a row into a heap object of its
// own made it 3.3.
const scaleSmokeObjectCeiling = 0.5

// liveObjectsPerAccount collects the heap and returns its live objects
// per account of a world holding accounts.
func liveObjectsPerAccount(accounts int) (float64, uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapObjects) / float64(accounts), ms.HeapObjects
}

// TestScaleSmoke is the CI scale arm: build a 100k-account world, assert
// it holds no heap objects per account, run a week, assert the live
// heap stays under budget, then snapshot and restore the world and
// assert the restored one holds no heap objects per account either. It
// guards the per-account density a 1M-account world depends on, at a
// size every test sweep can afford.
func TestScaleSmoke(t *testing.T) {
	start := time.Now()
	cfg := scaleConfig(100_000, 7)
	w := core.NewWorld(cfg)
	perAccountObjects, objects := liveObjectsPerAccount(w.Plat.NumAccounts())
	t.Logf("scale smoke: built %d accounts; %d live heap objects (%.3f/account)",
		w.Plat.NumAccounts(), objects, perAccountObjects)
	if perAccountObjects > scaleSmokeObjectCeiling {
		t.Errorf("built world holds %.2f live heap objects per account, ceiling %.2f",
			perAccountObjects, scaleSmokeObjectCeiling)
	}
	w.RunAll()
	if err := w.RunDays(cfg.Days); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perAccount := ms.HeapAlloc / 100_000
	t.Logf("scale smoke: %d accounts, %d days in %v; heap_alloc %d MiB (%d B/account)",
		cfg.OrganicPopulation, cfg.Days, time.Since(start).Round(time.Millisecond),
		ms.HeapAlloc>>20, perAccount)
	if ms.HeapAlloc > scaleSmokeHeapBudget {
		t.Errorf("heap_alloc %d exceeds the %d-byte scale budget (%d B/account)",
			ms.HeapAlloc, uint64(scaleSmokeHeapBudget), perAccount)
	}

	var snap bytes.Buffer
	if err := w.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	accounts := w.Plat.NumAccounts()
	w = nil // the restored world is measured alone
	restored, err := core.RestoreWorld(cfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snap = bytes.Buffer{}
	if n := restored.Plat.NumAccounts(); n != accounts {
		t.Fatalf("restored %d accounts, snapshot held %d", n, accounts)
	}
	perAccountObjects, objects = liveObjectsPerAccount(accounts)
	// Measured while the world is still live — without this the compiler
	// is free to let the GC collect it before ReadMemStats.
	runtime.KeepAlive(restored)
	t.Logf("scale smoke: restored %d accounts; %d live heap objects (%.3f/account)",
		accounts, objects, perAccountObjects)
	if perAccountObjects > scaleSmokeObjectCeiling {
		t.Errorf("restored world holds %.2f live heap objects per account, ceiling %.2f",
			perAccountObjects, scaleSmokeObjectCeiling)
	}
}
