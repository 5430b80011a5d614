package eventio

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"footsteps/internal/platform"
)

// Steady-state allocation budgets for the FSEV1 codec, enforced below.
// "Steady state" means the client fingerprint is already in the string
// table and the record scratch has grown to record size — every event
// after a stream's first few. Raise a budget only with a profile showing
// why — see docs/PERFORMANCE.md.
const (
	allocBudgetWriterWrite = 0
	allocBudgetReaderNext  = 0
	allocBudgetScan        = 0
)

func allocEvent(seq uint64) platform.Event {
	return platform.Event{
		Seq:     seq,
		Time:    time.Unix(0, int64(seq)*1e9).UTC(),
		Type:    platform.ActionLike,
		Actor:   7,
		Target:  9,
		Post:    42,
		IP:      netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		ASN:     64512,
		Client:  "instagram-private-api/1.2",
		API:     platform.APIPrivate,
		Outcome: platform.OutcomeAllowed,
	}
}

// TestAllocBudgetWriterWrite pins Writer.Write at zero allocations per
// event once the string table and scratch are warm.
func TestAllocBudgetWriterWrite(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(allocEvent(0)); err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	got := testing.AllocsPerRun(100, func() {
		_ = w.Write(allocEvent(seq))
		seq++
	})
	if got > allocBudgetWriterWrite {
		t.Errorf("eventio.Writer.Write allocates %.1f/op in steady state, budget %d — record-scratch reuse regressed",
			got, allocBudgetWriterWrite)
	}
}

// TestAllocBudgetReaderNext pins Reader.Next at zero allocations per
// event record (a string-table record comes once per distinct
// fingerprint and reads through the reader's scratch buffer).
func TestAllocBudgetReaderNext(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	for i := uint64(0); i < n; i++ {
		if err := w.Write(allocEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Consume the string-table record and the first event outside the
	// measured window.
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(n-2, func() {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	})
	if got > allocBudgetReaderNext {
		t.Errorf("eventio.Reader.Next allocates %.1f/op in steady state, budget %d — per-record scratch reuse regressed",
			got, allocBudgetReaderNext)
	}
}

// TestAllocBudgetScan pins Scanner.Scan at zero allocations per event
// record once the record's client is in the scanner's string table.
func TestAllocBudgetScan(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The first write adds the client's string-table record and warms
	// the table; the second is one bare event record.
	var cut int
	for i := uint64(0); i < 2; i++ {
		cut = buf.Len()
		if err := w.Write(allocEvent(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var sc Scanner
	if _, err := sc.Scan(buf.Bytes()[len(magic):cut]); err != nil {
		t.Fatal(err)
	}
	record := buf.Bytes()[cut:]
	got := testing.AllocsPerRun(1000, func() {
		if _, err := sc.Scan(record); err != nil {
			t.Fatalf("Scan: %v", err)
		}
	})
	if got > allocBudgetScan {
		t.Errorf("eventio.Scanner.Scan allocates %.1f per event record on a warm string table, budget %d",
			got, allocBudgetScan)
	}
}
