package platform

import (
	"runtime"
	"testing"
	"time"
)

// foldRecorder collects the sequence numbers a fold or subscriber sees.
type foldRecorder struct{ seqs []uint64 }

func (r *foldRecorder) fold(evs []Event) {
	for i := range evs {
		r.seqs = append(r.seqs, evs[i].Seq)
	}
}

// checkSeqs fails unless got is exactly from+1..to.
func checkSeqs(t *testing.T, name string, got []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(got)) != to-from {
		t.Fatalf("%s saw %d events, want %d", name, len(got), to-from)
	}
	for i, s := range got {
		if want := from + 1 + uint64(i); s != want {
			t.Fatalf("%s: event %d has Seq %d, want %d", name, i, s, want)
		}
	}
}

// TestFoldSeesEveryEventInOrder emits across full batches, partial
// batches and repeated Syncs, with subscribers interleaved among the
// folds, and checks that each fold sees every event after its
// registration exactly once, in Seq order.
func TestFoldSeesEveryEventInOrder(t *testing.T) {
	var l EventLog
	emit := func(n int) {
		for i := 0; i < n; i++ {
			l.Emit(Event{Type: ActionLike, Actor: AccountID(i + 1)})
		}
	}
	var sub foldRecorder
	l.Subscribe(func(ev Event) { sub.seqs = append(sub.seqs, ev.Seq) })
	emit(10) // before any fold
	var a, b foldRecorder
	l.Fold(a.fold)
	var sub2 foldRecorder
	l.Subscribe(func(ev Event) { sub2.seqs = append(sub2.seqs, ev.Seq) })

	emit(3*foldBatchLen + 17) // full batches and a partial one
	l.Sync()
	l.Sync() // a second barrier with nothing open
	emit(foldBatchLen - 1)
	l.Fold(b.fold) // registration syncs the open batch first
	emit(foldBatchLen)
	l.Sync()
	emit(5)
	l.Sync()

	end := l.Seq()
	checkSeqs(t, "subscriber", sub.seqs, 0, end)
	checkSeqs(t, "second subscriber", sub2.seqs, 10, end)
	checkSeqs(t, "first fold", a.seqs, 10, end)
	checkSeqs(t, "second fold", b.seqs, 10+4*foldBatchLen+16, end)
}

// TestFoldOrderWithinBatch checks the folds run over each batch in
// registration order.
func TestFoldOrderWithinBatch(t *testing.T) {
	var l EventLog
	var order []int
	for i := 0; i < 3; i++ {
		l.Fold(func([]Event) { order = append(order, i) })
	}
	for i := 0; i < foldBatchLen+1; i++ {
		l.Emit(Event{})
	}
	l.Sync()
	want := []int{0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("folds ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("folds ran %v, want %v", order, want)
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall
// to want: a fold goroutine that has finished its last batch may still
// be returning when Sync does.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFoldGoroutineExits checks that the fold goroutine exits after
// Sync, and after a log with folds is dropped between barriers.
func TestFoldGoroutineExits(t *testing.T) {
	base := runtime.NumGoroutine()
	var l EventLog
	var n int
	l.Fold(func(evs []Event) { n += len(evs) })
	for i := 0; i < 5*foldBatchLen+3; i++ {
		l.Emit(Event{})
	}
	l.Sync()
	if n != 5*foldBatchLen+3 {
		t.Fatalf("folded %d events, want %d", n, 5*foldBatchLen+3)
	}
	waitGoroutines(t, base, "after Sync")

	func() {
		var dropped EventLog
		dropped.Fold(func([]Event) {})
		for i := 0; i < 4*foldBatchLen+100; i++ {
			dropped.Emit(Event{})
		}
	}()
	waitGoroutines(t, base, "after a log with folds was dropped")
}

// TestNoFoldNoGoroutine checks that a log with only subscribers starts
// no goroutine and holds no batch.
func TestNoFoldNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var l EventLog
	var n int
	l.Subscribe(func(Event) { n++ })
	for i := 0; i < 3*foldBatchLen; i++ {
		l.Emit(Event{})
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("event %d: %d goroutines, want at most %d", i, g, base)
		}
	}
	l.Sync()
	if n != 3*foldBatchLen || l.batch != nil || l.queue != nil {
		t.Fatalf("subscriber saw %d events; batch %v, queue %v", n, l.batch != nil, l.queue != nil)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("after Sync: %d goroutines, want at most %d", g, base)
	}
}

// TestAllocBudgetEmitToFold pins the cost of a fold to the emitting
// goroutine: once the batches are recycled, a batch's worth of events —
// each copied into the open batch, and the full batch handed over —
// allocates nothing.
func TestAllocBudgetEmitToFold(t *testing.T) {
	var l EventLog
	var n int
	l.Fold(func(evs []Event) { n += len(evs) })
	ev := Event{Type: ActionLike, Actor: 1, Target: 2, Client: "spoof"}
	batch := func() {
		for i := 0; i < foldBatchLen; i++ {
			l.Emit(ev)
		}
	}
	for i := 0; i < foldQueueLen+2; i++ {
		batch() // allocate every batch there will be
	}
	got := testing.AllocsPerRun(20, func() {
		batch()
		l.Sync()
	})
	if got > 0 {
		t.Errorf("emitting a fold batch and syncing allocates %.1f/batch, want 0", got)
	}
	if want := (foldQueueLen + 2 + 21) * foldBatchLen; n != want {
		t.Fatalf("folded %d events, want %d", n, want)
	}
}
