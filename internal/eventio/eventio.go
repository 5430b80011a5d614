// Package eventio persists platform event streams: a compact binary codec
// for bulk capture and a JSON-lines codec for interoperability.
//
// The binary format ("FSEV1") writes one varint-encoded record per event
// with an inline string table for client fingerprints, which repeat
// heavily, so each event carries a small id in their place. A capture
// costs about 28 bytes per event (examples/offlineaudit prints the
// figure for its 14-day window). Streams are append-only and self-delimiting, so a Reader can consume a capture
// while it is still being written.
package eventio

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"footsteps/internal/framing"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/socialgraph"
)

// magic identifies a binary event stream and its version.
var magic = []byte("FSEV1\n")

// ErrBadMagic is returned when a stream does not start with the format
// header.
var ErrBadMagic = errors.New("eventio: not a FSEV1 event stream")

// record opcodes.
const (
	opEvent  = 0 // an event record
	opString = 1 // a string-table addition (fingerprint)
)

// Writer encodes events to a binary stream. It is not safe for concurrent
// use; attach it to the single-threaded event log.
type Writer struct {
	w       *bufio.Writer
	strings map[string]uint64
	scratch []byte
	count   uint64
}

// NewWriter writes the header and returns a writer. Call Flush before
// closing the underlying file.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, strings: make(map[string]uint64)}, nil
}

// NewWriterResume returns a writer that continues an existing stream
// after a crash or handoff: it writes no magic header, seeds the string
// table with the fingerprints the stream has already emitted (in table
// order, so ids 0..len-1 resolve identically), and starts the event
// count at events. Feed it the table a Reader or Scanner collected over
// the retained prefix (Strings) and the records it emits concatenate
// onto that prefix to form one valid FSEV1 stream — byte-identical to
// what an uninterrupted writer would have produced.
func NewWriterResume(w io.Writer, strings []string, events uint64) *Writer {
	m := make(map[string]uint64, len(strings))
	for i, s := range strings {
		m[s] = uint64(i)
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), strings: m, count: events}
}

// Attach subscribes the writer to an event log. Encoding errors are
// surfaced through Err after the fact (the log has no error channel);
// in practice they only occur when the underlying medium fails.
func (w *Writer) Attach(log *platform.EventLog) *Writer {
	log.Subscribe(func(ev platform.Event) { _ = w.Write(ev) })
	return w
}

func (w *Writer) putUvarint(v uint64) {
	w.scratch = binary.AppendUvarint(w.scratch[:0], v)
	w.w.Write(w.scratch)
}

// stringRef returns s's string-table id, emitting a string-table record
// on first use.
func (w *Writer) stringRef(s string) uint64 {
	if id, ok := w.strings[s]; ok {
		return id
	}
	id := uint64(len(w.strings))
	w.strings[s] = id
	w.w.WriteByte(opString)
	w.putUvarint(uint64(len(s)))
	w.w.WriteString(s)
	return id
}

// Write encodes one event. The full record is assembled in the writer's
// scratch buffer — grown once to record size, then reused — and handed
// to the buffered writer in a single call, instead of re-slicing scratch
// and calling Write per varint. The emitted bytes are identical to the
// per-varint encoding, so existing captures and goldens are unaffected.
func (w *Writer) Write(ev platform.Event) error {
	clientRef := w.stringRef(ev.Client)
	buf := append(w.scratch[:0], opEvent)
	buf = binary.AppendUvarint(buf, ev.Seq)
	buf = binary.AppendUvarint(buf, uint64(ev.Time.UnixNano()))
	buf = binary.AppendUvarint(buf, uint64(ev.Type))
	buf = binary.AppendUvarint(buf, uint64(ev.Actor))
	buf = binary.AppendUvarint(buf, uint64(ev.Target))
	buf = binary.AppendUvarint(buf, uint64(ev.Post))
	var ipBits uint64
	if ev.IP.Is4() {
		b := ev.IP.As4()
		ipBits = uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	}
	buf = binary.AppendUvarint(buf, ipBits)
	buf = binary.AppendUvarint(buf, uint64(ev.ASN))
	buf = binary.AppendUvarint(buf, clientRef)
	var flags uint64
	if ev.Outcome == platform.OutcomeUnavailable {
		// Outcome codes above 3 do not fit the two original outcome
		// bits; unavailable rides a dedicated flag so pre-existing
		// captures decode byte-for-byte unchanged.
		flags |= 1 << 5
	} else {
		flags |= uint64(ev.Outcome) & 0x3
	}
	flags |= uint64(ev.API) << 2
	if ev.Enforcement {
		flags |= 1 << 3
	}
	if ev.Duplicate {
		flags |= 1 << 4
	}
	buf = binary.AppendUvarint(buf, flags)
	w.scratch = buf
	w.w.Write(buf)
	w.count++
	return nil
}

// Count returns the number of events written.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// StreamMagic returns the header bytes every FSEV1 stream begins with.
// Consumers that reassemble streams from framed storage (internal/
// durable) prepend it to the concatenated record bytes.
func StreamMagic() []byte { return append([]byte(nil), magic...) }

// TruncatedError reports a stream that ends (or corrupts) inside a
// record — the signature of an interrupted capture. Events counts the
// complete events decoded before the cut and Offset is the byte offset
// where the partial record begins, so tools can say exactly how much
// of the capture survived.
type TruncatedError struct {
	Events uint64 // complete events decoded before the cut
	Offset int64  // byte offset of the partial record
	Err    error  // the underlying decode failure
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("eventio: capture truncated at event %d (byte offset %d): %v", e.Events, e.Offset, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *TruncatedError) Unwrap() error { return e.Err }

// Reader decodes a binary event stream.
type Reader struct {
	r       *framing.Reader
	strings []string
	scratch []byte // reusable string-record read buffer
	events  uint64
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	fr := framing.NewReader(r)
	ok, err := fr.Magic(magic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if !ok {
		return nil, ErrBadMagic
	}
	return &Reader{r: fr}, nil
}

// Events returns the number of complete events decoded so far.
func (r *Reader) Events() uint64 { return r.events }

// Strings returns a copy of the string table collected so far, in id
// order. Feeding it to NewWriterResume lets a new writer continue the
// stream with identical string references.
func (r *Reader) Strings() []string {
	return append([]string(nil), r.strings...)
}

// truncated wraps a mid-record decode failure.
func (r *Reader) truncated(start int64, what string, err error) error {
	return &TruncatedError{Events: r.events, Offset: start, Err: fmt.Errorf("%s: %w", what, err)}
}

// Next returns the next event, or io.EOF at a clean end of stream. A
// stream that ends inside a record yields a *TruncatedError.
func (r *Reader) Next() (platform.Event, error) {
	for {
		op, err := r.r.ReadByte()
		if err != nil {
			// io.EOF at a record boundary is a clean end of stream.
			return platform.Event{}, err
		}
		start := r.r.Offset() - 1
		switch op {
		case opString:
			n, err := r.r.Uvarint()
			if err != nil {
				return platform.Event{}, r.truncated(start, "string length", err)
			}
			if n > 1<<16 {
				return platform.Event{}, fmt.Errorf("eventio: implausible string length %d at event %d (byte offset %d)", n, r.events, start)
			}
			// Read into the reader's reusable scratch, then copy. The
			// writer emits each distinct string once per stream, so this
			// is one allocation per distinct fingerprint, not per event.
			if r.scratch, err = r.r.Append(r.scratch[:0], int(n)); err != nil {
				return platform.Event{}, r.truncated(start, "string body", err)
			}
			r.strings = append(r.strings, string(r.scratch))
		case opEvent:
			ev, err := r.readEvent(start)
			if err != nil {
				return ev, err
			}
			r.events++
			return ev, nil
		default:
			return platform.Event{}, fmt.Errorf("eventio: unknown opcode %d at event %d (byte offset %d)", op, r.events, start)
		}
	}
}

func (r *Reader) readEvent(start int64) (platform.Event, error) {
	var ev platform.Event
	var fields [10]uint64
	for i := range fields {
		v, err := r.r.Uvarint()
		if err != nil {
			return ev, r.truncated(start, "event record", err)
		}
		fields[i] = v
	}
	ev.Seq = fields[0]
	ev.Time = time.Unix(0, int64(fields[1])).UTC()
	ev.Type = platform.ActionType(fields[2])
	ev.Actor = socialgraph.AccountID(fields[3])
	ev.Target = socialgraph.AccountID(fields[4])
	ev.Post = socialgraph.PostID(fields[5])
	if ip := fields[6]; ip != 0 {
		ev.IP = netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)})
	}
	ev.ASN = netsim.ASN(fields[7])
	if ref := fields[8]; ref < uint64(len(r.strings)) {
		ev.Client = r.strings[ref]
	} else {
		return ev, fmt.Errorf("eventio: dangling string ref %d", fields[8])
	}
	flags := fields[9]
	ev.Outcome = platform.Outcome(flags & 0x3)
	if flags&(1<<5) != 0 {
		ev.Outcome = platform.OutcomeUnavailable
	}
	ev.API = platform.APIKind((flags >> 2) & 0x1)
	ev.Enforcement = flags&(1<<3) != 0
	ev.Duplicate = flags&(1<<4) != 0
	return ev, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]platform.Event, error) {
	var out []platform.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// Scanner checks FSEV1 record bytes in place. It makes exactly the
// record checks Reader.Next makes — a known opcode, a string length of
// at most 1<<16 with all its bytes present, ten complete
// non-overflowing uvarints per event, a client ref inside the string
// table — and collects the same string table, but it reads a byte slice
// without copying it and builds no events. internal/durable runs one
// over each frame payload of a log it resumes.
//
// The zero value is ready to use. Successive Scan calls continue one
// stream: the string table and the event count span them.
type Scanner struct {
	strs   []string
	events uint64
}

// Strings returns the string table collected so far, in id order, as
// Reader.Strings does. The slice is the scanner's own; a later Scan may
// append to it.
func (s *Scanner) Strings() []string { return s.strs }

// Events returns the number of complete events scanned so far.
func (s *Scanner) Events() uint64 { return s.events }

// Scan checks p, a run of records without the magic header, and returns
// the length of its prefix of whole valid records: len(p) when err is
// nil, and otherwise the offset in p of the record that fails. A record
// cut by the end of p is a *TruncatedError. Errors read as Reader.Next's
// would for the stream magic+p, except that every byte offset in them is
// an offset in p. Scan allocates only for a string-table record.
func (s *Scanner) Scan(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		start := n
		switch op := p[start]; op {
		case opString:
			l, i, err := framing.Uvarint(p, start+1)
			if err != nil {
				return start, s.truncated(start, "string length", err)
			}
			if l > 1<<16 {
				return start, fmt.Errorf("eventio: implausible string length %d at event %d (byte offset %d)", l, s.events, start)
			}
			if l > uint64(len(p)-i) {
				return start, s.truncated(start, "string body", io.ErrUnexpectedEOF)
			}
			s.strs = append(s.strs, string(p[i:i+int(l)]))
			n = i + int(l)
		case opEvent:
			i := start + 1
			var ref uint64 // field 8 of 10, the client's string id
			for f := 0; f < 10; f++ {
				var v uint64
				if i < len(p) && p[i] < 0x80 { // most fields fit one byte
					v = uint64(p[i])
					i++
				} else {
					var err error
					if v, i, err = framing.Uvarint(p, i); err != nil {
						return start, s.truncated(start, "event record", err)
					}
				}
				if f == 8 {
					ref = v
				}
			}
			if ref >= uint64(len(s.strs)) {
				return start, fmt.Errorf("eventio: dangling string ref %d", ref)
			}
			s.events++
			n = i
		default:
			return start, fmt.Errorf("eventio: unknown opcode %d at event %d (byte offset %d)", op, s.events, start)
		}
	}
	return n, nil
}

func (s *Scanner) truncated(start int, what string, err error) error {
	return &TruncatedError{Events: s.events, Offset: int64(start), Err: fmt.Errorf("%s: %w", what, err)}
}

// jsonEvent is the interchange shape for the JSONL codec.
type jsonEvent struct {
	Seq         uint64 `json:"seq"`
	Time        string `json:"time"`
	Type        string `json:"type"`
	Actor       uint64 `json:"actor"`
	Target      uint64 `json:"target,omitempty"`
	Post        uint64 `json:"post,omitempty"`
	IP          string `json:"ip,omitempty"`
	ASN         uint32 `json:"asn,omitempty"`
	Client      string `json:"client,omitempty"`
	API         string `json:"api"`
	Outcome     string `json:"outcome"`
	Enforcement bool   `json:"enforcement,omitempty"`
	Duplicate   bool   `json:"duplicate,omitempty"`
}

// WriteJSONL encodes events as JSON lines, one event per line.
func WriteJSONL(w io.Writer, events []platform.Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		je := jsonEvent{
			Seq: ev.Seq, Time: ev.Time.UTC().Format(time.RFC3339Nano),
			Type: ev.Type.String(), Actor: uint64(ev.Actor),
			Target: uint64(ev.Target), Post: uint64(ev.Post),
			ASN: uint32(ev.ASN), Client: ev.Client,
			API: ev.API.String(), Outcome: ev.Outcome.String(),
			Enforcement: ev.Enforcement, Duplicate: ev.Duplicate,
		}
		if ev.IP.IsValid() {
			je.IP = ev.IP.String()
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}
