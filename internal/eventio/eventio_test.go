package eventio

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/socialgraph"
)

func sampleEvents() []platform.Event {
	return []platform.Event{
		{
			Seq: 1, Time: clock.Epoch, Type: platform.ActionLogin,
			Actor: 10, IP: netip.MustParseAddr("10.1.2.3"), ASN: 1001,
			Client: "mobile-spoof-instastar", API: platform.APIPrivate,
			Outcome: platform.OutcomeAllowed,
		},
		{
			Seq: 2, Time: clock.Epoch.Add(90 * time.Minute), Type: platform.ActionLike,
			Actor: 10, Target: 20, Post: 7, IP: netip.MustParseAddr("10.1.2.3"),
			ASN: 1001, Client: "mobile-spoof-instastar", API: platform.APIPrivate,
			Outcome: platform.OutcomeBlocked,
		},
		{
			Seq: 3, Time: clock.Epoch.Add(2 * time.Hour), Type: platform.ActionFollow,
			Actor: 11, Target: 21, Client: "mobile-official", API: platform.APIOAuth,
			Outcome: platform.OutcomeAllowed, Duplicate: true,
		},
		{
			Seq: 4, Time: clock.Epoch.Add(26 * time.Hour), Type: platform.ActionUnfollow,
			Actor: 10, Target: 21, Client: "", Outcome: platform.OutcomeAllowed,
			Enforcement: true,
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := sampleEvents()
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(events)) {
		t.Fatalf("count %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	t.Parallel()
	check := func(seq uint32, typ, outcome uint8, actor, target, post uint32, asn uint16, hours uint16, flags uint8) bool {
		ev := platform.Event{
			Seq:         uint64(seq),
			Time:        clock.Epoch.Add(time.Duration(hours) * time.Hour),
			Type:        platform.ActionType(typ % 6),
			Actor:       socialgraph.AccountID(actor),
			Target:      socialgraph.AccountID(target),
			Post:        socialgraph.PostID(post),
			ASN:         netsim.ASN(asn),
			Client:      "client-" + string(rune('a'+typ%5)),
			API:         platform.APIKind(flags & 1),
			Outcome:     platform.Outcome(outcome % 4),
			Enforcement: flags&2 != 0,
			Duplicate:   flags&4 != 0,
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		w.Write(ev)
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		return err == nil && got == ev
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringTableDeduplicates(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	ev := sampleEvents()[0]
	for i := 0; i < 1000; i++ {
		ev.Seq = uint64(i)
		w.Write(ev)
	}
	w.Flush()
	// With the fingerprint interned once, 1000 events should take well
	// under 40 bytes each.
	if per := buf.Len() / 1000; per > 40 {
		t.Fatalf("encoding %d bytes/event, string table not working", per)
	}
	r, _ := NewReader(&buf)
	got, err := r.ReadAll()
	if err != nil || len(got) != 1000 {
		t.Fatalf("decode: %d events, err %v", len(got), err)
	}
	if got[999].Client != ev.Client {
		t.Fatal("string ref resolution broken")
	}
}

func TestBadMagic(t *testing.T) {
	t.Parallel()
	if _, err := NewReader(strings.NewReader("NOTFSEV stream")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewReader(strings.NewReader("")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(sampleEvents()[0])
	w.Flush()
	// Chop mid-record.
	raw := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil {
		t.Fatal("truncated record decoded without error")
	}
	var trunc *TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("err = %v (%T), want *TruncatedError", err, err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation does not unwrap to io.ErrUnexpectedEOF: %v", err)
	}
}

// TestTruncatedErrorDetails pins the diagnostic contract fsevdump
// relies on: a capture cut mid-record still yields every complete event
// before the cut, and the error then names the event count and the byte
// offset where the partial record begins.
func TestTruncatedErrorDetails(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	events := sampleEvents()
	for _, ev := range events {
		w.Write(ev)
	}
	w.Flush()
	raw := buf.Bytes()[:buf.Len()-2] // cut inside the final record

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if len(got) != len(events)-1 {
		t.Fatalf("decoded %d events before the cut, want %d", len(got), len(events)-1)
	}
	var trunc *TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("err = %v (%T), want *TruncatedError", err, err)
	}
	if trunc.Events != uint64(len(events)-1) || trunc.Events != r.Events() {
		t.Errorf("Events = %d (reader says %d), want %d", trunc.Events, r.Events(), len(events)-1)
	}
	if trunc.Offset < int64(len(magic)) || trunc.Offset >= int64(len(raw)) {
		t.Errorf("Offset = %d outside the stream body [%d, %d)", trunc.Offset, len(magic), len(raw))
	}
	msg := trunc.Error()
	for _, want := range []string{"truncated", "event 3", "byte offset"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}

// TestCorruptOpcodeNamesPosition checks that a garbage byte at a record
// boundary is reported with the decode position, not as a bare opcode
// error.
func TestCorruptOpcodeNamesPosition(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(sampleEvents()[0])
	w.Flush()
	buf.WriteByte(0x7f) // invalid opcode after one valid event

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if len(got) != 1 {
		t.Fatalf("decoded %d events before the corruption, want 1", len(got))
	}
	if err == nil || !strings.Contains(err.Error(), "unknown opcode 127 at event 1") {
		t.Fatalf("err = %v, want unknown-opcode error naming event 1", err)
	}
}

// TestUnavailableOutcomeRoundTrip pins the bit-5 outcome encoding: the
// fault-injected outcome survives the codec, and — critically for the
// faults-off golden — events with classic outcomes encode exactly as
// they always did.
func TestUnavailableOutcomeRoundTrip(t *testing.T) {
	t.Parallel()
	ev := sampleEvents()[1]
	ev.Outcome = platform.OutcomeUnavailable
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(ev)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != platform.OutcomeUnavailable {
		t.Fatalf("outcome %v, want unavailable", got.Outcome)
	}
	if got != ev {
		t.Fatalf("event mutated in round trip:\n got %+v\nwant %+v", got, ev)
	}
}

func TestAttachCapturesLiveStream(t *testing.T) {
	t.Parallel()
	var log platform.EventLog
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Attach(&log)
	for i := 0; i < 5; i++ {
		log.Emit(platform.Event{Time: clock.Epoch, Type: platform.ActionLike, Actor: 1, Client: "c"})
	}
	w.Flush()
	r, _ := NewReader(&buf)
	got, err := r.ReadAll()
	if err != nil || len(got) != 5 {
		t.Fatalf("captured %d events, err %v", len(got), err)
	}
	// Seq was assigned by the log.
	if got[4].Seq != 5 {
		t.Fatalf("seq %d", got[4].Seq)
	}
}

func TestWriteJSONL(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d", len(lines))
	}
	if !strings.Contains(lines[0], `"type":"login"`) {
		t.Fatalf("line 0: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"outcome":"blocked"`) {
		t.Fatalf("line 1: %s", lines[1])
	}
	if !strings.Contains(lines[3], `"enforcement":true`) {
		t.Fatalf("line 3: %s", lines[3])
	}
	// IP omitted when invalid.
	if strings.Contains(lines[2], `"ip"`) {
		t.Fatalf("line 2 has IP: %s", lines[2])
	}
}

func TestReaderStopsAtEOFCleanly(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	events := sampleEvents()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		ev.Seq = uint64(i)
		w.Write(ev)
	}
	w.Flush()
	b.SetBytes(int64(buf.Len() / max(b.N, 1)))
}

func BenchmarkReaderThroughput(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	ev := sampleEvents()[1]
	for i := 0; i < 100000; i++ {
		ev.Seq = uint64(i)
		w.Write(ev)
	}
	w.Flush()
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(bytes.NewReader(raw))
		n := 0
		for {
			if _, err := r.Next(); err != nil {
				break
			}
			n++
		}
		if n != 100000 {
			b.Fatalf("decoded %d", n)
		}
	}
}

// BenchmarkScanThroughput checks the stream BenchmarkReaderThroughput
// decodes, in place, as durable.Resume does.
func BenchmarkScanThroughput(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	ev := sampleEvents()[1]
	for i := 0; i < 100000; i++ {
		ev.Seq = uint64(i)
		w.Write(ev)
	}
	w.Flush()
	body := buf.Bytes()[len(magic):]
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sc Scanner
		if _, err := sc.Scan(body); err != nil || sc.Events() != 100000 {
			b.Fatalf("scanned %d events: %v", sc.Events(), err)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestWriterResumeContinuesStream splits a stream at every record
// boundary and proves the handoff property behind internal/durable:
// decode the prefix, hand its string table and event count to
// NewWriterResume, write the remaining events, and the concatenation
// of prefix and continuation must be byte-identical to the one-writer
// stream — string ids, sequence numbers, everything.
func TestWriterResumeContinuesStream(t *testing.T) {
	t.Parallel()
	events := sampleEvents()
	var full bytes.Buffer
	w, err := NewWriter(&full)
	if err != nil {
		t.Fatal(err)
	}
	// Per-event flush marks each record boundary in the full stream
	// (the first flush lands the magic header).
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	bounds := []int{full.Len()}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, full.Len())
	}
	for cut := 0; cut <= len(events); cut++ {
		prefix := full.Bytes()[:bounds[cut]]
		r, err := NewReader(bytes.NewReader(prefix))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("cut %d: prefix decode: %v", cut, err)
			}
		}
		if r.Events() != uint64(cut) {
			t.Fatalf("cut %d: prefix holds %d events", cut, r.Events())
		}
		var tail bytes.Buffer
		rw := NewWriterResume(&tail, r.Strings(), r.Events())
		for _, ev := range events[cut:] {
			if err := rw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		if rw.Count() != uint64(len(events)) {
			t.Fatalf("cut %d: resumed count %d, want %d", cut, rw.Count(), len(events))
		}
		joined := append(append([]byte(nil), prefix...), tail.Bytes()...)
		if !bytes.Equal(joined, full.Bytes()) {
			t.Fatalf("cut %d: prefix+continuation differs from one-writer stream", cut)
		}
	}
}
