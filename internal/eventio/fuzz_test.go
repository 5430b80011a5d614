package eventio

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"footsteps/internal/netsim"
	"footsteps/internal/platform"
)

// FuzzEventRoundTrip checks that any event the platform can emit — every
// action type, every outcome/API/flag combination, arbitrary identifiers,
// addresses, and client fingerprints — survives a binary encode/decode
// unchanged, including the string-table interning path (each event is
// written twice so the second write exercises the table hit).
func FuzzEventRoundTrip(f *testing.F) {
	// One seed per action kind, exercising distinct flag and IP shapes.
	for kind := byte(0); kind < 6; kind++ {
		f.Add(uint64(kind)+1, int64(1504224000000000000)+int64(kind), kind,
			uint64(10+kind), uint64(20+kind), uint64(30+kind),
			uint32(0x0a000001)<<(kind%3), uint32(64496)+uint32(kind),
			"mobile-official", kind)
	}
	// The fault-injected outcome rides flag bit 5 (see the codec); seed
	// it explicitly so the corpus always covers OutcomeUnavailable.
	f.Add(uint64(7), int64(1504224000000000000), byte(1),
		uint64(10), uint64(20), uint64(30),
		uint32(0x0a000001), uint32(64496), "mobile-official", byte(1<<5))
	f.Fuzz(func(t *testing.T, seq uint64, nanos int64, kind byte,
		actor, target, post uint64, ipBits, asn uint32, client string, flags byte) {
		if len(client) > 1<<16 {
			client = client[:1<<16] // the reader's string sanity cap
		}
		ev := platform.Event{
			Seq:         seq,
			Time:        time.Unix(0, nanos).UTC(),
			Type:        platform.ActionType(kind % 6),
			Actor:       platform.AccountID(actor),
			Target:      platform.AccountID(target),
			Post:        platform.PostID(post),
			ASN:         netsim.ASN(asn),
			Client:      client,
			Outcome:     platform.Outcome(flags & 0x3),
			API:         platform.APIKind((flags >> 2) & 0x1),
			Enforcement: flags&(1<<3) != 0,
			Duplicate:   flags&(1<<4) != 0,
		}
		if flags&(1<<5) != 0 {
			// Mirror the codec's flag layout: bit 5 marks the
			// fault-injected outcome regardless of the low outcome bits.
			ev.Outcome = platform.OutcomeUnavailable
		}
		if ipBits != 0 {
			ev.IP = netip.AddrFrom4([4]byte{byte(ipBits >> 24), byte(ipBits >> 16), byte(ipBits >> 8), byte(ipBits)})
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatalf("new writer: %v", err)
		}
		if err := w.Write(ev); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Write(ev); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}

		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("new reader: %v", err)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != 2 {
			t.Fatalf("decoded %d events, want 2", len(got))
		}
		for i, g := range got {
			if g.Seq != ev.Seq || !g.Time.Equal(ev.Time) || g.Type != ev.Type ||
				g.Actor != ev.Actor || g.Target != ev.Target || g.Post != ev.Post ||
				g.IP != ev.IP || g.ASN != ev.ASN || g.Client != ev.Client ||
				g.Outcome != ev.Outcome || g.API != ev.API ||
				g.Enforcement != ev.Enforcement || g.Duplicate != ev.Duplicate {
				t.Fatalf("event %d mutated in round trip:\n got %+v\nwant %+v", i, g, ev)
			}
		}
	})
}

// FuzzReaderNoPanic feeds arbitrary bytes to the decoder after a valid
// header: malformed streams must produce errors, never panics or runaway
// allocations.
func FuzzReaderNoPanic(f *testing.F) {
	f.Add([]byte{opEvent, 1, 2, 3})
	f.Add([]byte{opString, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{7, 7, 7})
	// Truncated-capture seeds: a well-formed stream cut at every prefix
	// of its final record, the exact shape an interrupted run leaves
	// behind. The decoder must surface these as *TruncatedError (checked
	// in the body below), never as a panic or a silent clean EOF plus
	// garbage.
	for _, body := range truncatedSeedBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		stream := append(append([]byte(nil), magic...), body...)
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			return
		}
		_, err = r.ReadAll()
		var trunc *TruncatedError
		if errors.As(err, &trunc) {
			// A truncation report must stay self-consistent: the offset
			// points inside the body and the event count matches what
			// was actually handed back.
			if trunc.Offset < int64(len(magic)) || trunc.Offset > int64(len(stream)) {
				t.Fatalf("truncation offset %d outside stream [%d, %d]", trunc.Offset, len(magic), len(stream))
			}
			if trunc.Events != r.Events() {
				t.Fatalf("truncation reports %d events, reader decoded %d", trunc.Events, r.Events())
			}
		}
	})
}

// truncatedSeedBodies encodes a small valid stream and returns it cut at
// several mid-record points (magic stripped: the fuzz harness prepends
// it).
func truncatedSeedBodies() [][]byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	ev := platform.Event{
		Seq: 1, Time: time.Unix(0, 1504224000000000000).UTC(),
		Type: platform.ActionLike, Actor: 10, Target: 20, Post: 30,
		ASN: 64496, Client: "mobile-official",
		Outcome: platform.OutcomeUnavailable,
	}
	w.Write(ev)
	ev.Seq, ev.Outcome = 2, platform.OutcomeAllowed
	w.Write(ev)
	w.Flush()
	full := buf.Bytes()[len(magic):]
	var bodies [][]byte
	for _, cut := range []int{1, len(full) / 2, len(full) - 5, len(full) - 1} {
		if cut > 0 && cut < len(full) {
			bodies = append(bodies, append([]byte(nil), full[:cut]...))
		}
	}
	return bodies
}

// FuzzScanMatchesReader holds Scanner to Reader's record checks. For any
// record bytes b, scanning b in place and draining a Reader over magic+b
// must collect the same string table (the same strings, in the same
// order) and the same event count, and fail on the same inputs. A
// truncation must be a *TruncatedError on both sides with the same event
// count, cause and offset (Scanner's counts from the start of b,
// Reader's from the start of the stream); any other failure must read
// the same up to its byte offset. The checked-in corpus holds a seed per
// record rule: a valid stream, an unknown opcode, an implausible string
// length, a string cut in its length or body, an event cut in a field,
// an event field that overflows (both of binary.ReadUvarint's overflow
// shapes), and a dangling client ref.
func FuzzScanMatchesReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(append(append([]byte(nil), magic...), b...)))
		if err != nil {
			t.Fatalf("new reader: %v", err)
		}
		_, rerr := r.ReadAll()
		var sc Scanner
		n, serr := sc.Scan(b)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("reader error %v, scanner error %v", rerr, serr)
		}
		if sc.Events() != r.Events() {
			t.Fatalf("scanner counts %d events, reader %d", sc.Events(), r.Events())
		}
		rs, ss := r.Strings(), sc.Strings()
		if len(rs) != len(ss) {
			t.Fatalf("scanner collects %d strings, reader %d", len(ss), len(rs))
		}
		for i := range rs {
			if ss[i] != rs[i] {
				t.Fatalf("string %d: scanner %q, reader %q", i, ss[i], rs[i])
			}
		}
		if serr == nil {
			if n != len(b) {
				t.Fatalf("clean scan consumed %d of %d bytes", n, len(b))
			}
			return
		}
		var rt, st *TruncatedError
		if errors.As(rerr, &rt) != errors.As(serr, &st) {
			t.Fatalf("only one side reports a truncation: reader %v, scanner %v", rerr, serr)
		}
		if st == nil {
			rmsg, _, _ := strings.Cut(rerr.Error(), " (byte offset")
			smsg, _, _ := strings.Cut(serr.Error(), " (byte offset")
			if rmsg != smsg {
				t.Fatalf("reader fails with %q, scanner with %q", rerr, serr)
			}
			return
		}
		if st.Events != rt.Events || st.Offset+int64(len(magic)) != rt.Offset || st.Err.Error() != rt.Err.Error() {
			t.Fatalf("truncation differs: reader %v, scanner %v", rt, st)
		}
		if int64(n) != st.Offset {
			t.Fatalf("scanner stops at %d but reports the cut record at %d", n, st.Offset)
		}
	})
}
