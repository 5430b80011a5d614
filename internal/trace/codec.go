package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"footsteps/internal/framing"
)

// ftrcMagic identifies a binary trace stream and its version. The header
// continues with two uvarints — the sampler seed and the 1-in-N sample
// rate — so a reader can report how much of the run a trace represents.
var ftrcMagic = []byte("FTRC1\n")

// ErrBadTraceMagic is returned when a stream does not start with the
// FTRC1 header.
var ErrBadTraceMagic = errors.New("trace: not a FTRC1 trace stream")

// Record opcode. Spans are the only record kind in v1; the opcode byte
// leaves room for string tables or schema records in later versions.
const opSpan = 0

// Decode caps: a payload or stage count beyond these is corruption, not
// a real span — fail fast instead of allocating attacker-sized buffers.
const (
	maxSpanPayload = 1 << 20
	maxSpanStages  = 1 << 10
)

// Writer encodes spans to an FTRC1 stream. Not safe for concurrent use;
// the Tracer calls it only from the serial emission paths. Write errors
// are sticky: the first failure is kept and every later call fails with
// it, so a full disk cannot silently shear a trace mid-span.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
	count   uint64
	err     error
	// lenBuf stages each record's length prefix. A struct field rather
	// than a local: a stack array sliced into an io.Writer call escapes,
	// costing one heap allocation per span.
	lenBuf [binary.MaxVarintLen64]byte
}

// NewWriter writes the header (magic, seed, sampleN) and returns a
// writer. Call Flush or Close before closing the underlying file.
func NewWriter(w io.Writer, seed, sampleN uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(ftrcMagic); err != nil {
		return nil, err
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], seed)
	n += binary.PutUvarint(hdr[n:], sampleN)
	if _, err := bw.Write(hdr[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// WriteSpan encodes one span. The payload is assembled in the writer's
// scratch buffer — grown once to span size, then reused — and handed to
// the buffered writer in a single length-prefixed record.
func (w *Writer) WriteSpan(sp *Span) error {
	if w.err != nil {
		return w.err
	}
	buf := w.scratch[:0]
	buf = binary.AppendUvarint(buf, uint64(sp.Tick))
	buf = binary.AppendUvarint(buf, uint64(sp.Shard))
	buf = binary.AppendUvarint(buf, uint64(sp.Seq))
	buf = binary.AppendUvarint(buf, sp.Parent)
	buf = binary.AppendUvarint(buf, uint64(sp.Kind))
	buf = binary.AppendUvarint(buf, uint64(sp.Action))
	buf = binary.AppendUvarint(buf, uint64(sp.Code))
	buf = binary.AppendUvarint(buf, sp.Actor)
	buf = binary.AppendUvarint(buf, sp.Target)
	buf = binary.AppendUvarint(buf, sp.Post)
	buf = binary.AppendUvarint(buf, uint64(sp.ASN))
	buf = binary.AppendVarint(buf, sp.Value)
	buf = binary.AppendUvarint(buf, uint64(sp.Start))
	buf = binary.AppendUvarint(buf, uint64(sp.Wall))
	buf = binary.AppendUvarint(buf, uint64(len(sp.Stages)))
	for _, st := range sp.Stages {
		buf = binary.AppendUvarint(buf, uint64(st.Stage))
		buf = binary.AppendUvarint(buf, uint64(st.Verdict))
		buf = binary.AppendUvarint(buf, uint64(st.Ns))
	}
	w.scratch = buf
	if err := w.w.WriteByte(opSpan); err != nil {
		w.err = err
		return err
	}
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(buf)))
	if _, err := w.w.Write(w.lenBuf[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Count returns the number of spans written.
func (w *Writer) Count() uint64 { return w.count }

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes and returns the first error the writer ever hit.
func (w *Writer) Close() error { return w.Flush() }

// TraceTruncatedError reports a trace stream that ends (or corrupts)
// inside a record — the signature of a run killed before the tracer
// flushed. Spans counts the complete spans decoded before the cut and
// Offset is the byte offset where the partial record begins.
type TraceTruncatedError struct {
	Spans  uint64 // complete spans decoded before the cut
	Offset int64  // byte offset of the partial record
	Err    error  // the underlying decode failure
}

func (e *TraceTruncatedError) Error() string {
	return fmt.Sprintf("trace: stream truncated at span %d (byte offset %d): %v", e.Spans, e.Offset, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *TraceTruncatedError) Unwrap() error { return e.Err }

// Reader decodes an FTRC1 trace stream. Decode is alloc-capped: Next
// returns a pointer into the reader's reusable span (and stage slice),
// valid only until the following Next call — copy what you keep.
type Reader struct {
	r       *framing.Reader
	payload []byte
	span    Span
	spans   uint64
	seed    uint64
	sampleN uint64
	err     error
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	fr := framing.NewReader(r)
	ok, err := fr.Magic(ftrcMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceMagic, err)
	}
	if !ok {
		return nil, ErrBadTraceMagic
	}
	rd := &Reader{r: fr}
	if rd.seed, err = fr.Uvarint(); err != nil {
		return nil, fmt.Errorf("trace: header seed: %w", err)
	}
	if rd.sampleN, err = fr.Uvarint(); err != nil {
		return nil, fmt.Errorf("trace: header sample rate: %w", err)
	}
	return rd, nil
}

// Seed returns the sampler seed recorded in the header.
func (r *Reader) Seed() uint64 { return r.seed }

// SampleN returns the 1-in-N sample rate recorded in the header.
func (r *Reader) SampleN() uint64 { return r.sampleN }

// Spans returns the number of complete spans decoded so far.
func (r *Reader) Spans() uint64 { return r.spans }

// truncated wraps a mid-record decode failure. The error is sticky:
// further Next calls return it unchanged.
func (r *Reader) truncated(start int64, what string, err error) error {
	r.err = &TraceTruncatedError{Spans: r.spans, Offset: start, Err: fmt.Errorf("%s: %w", what, err)}
	return r.err
}

// fail records a non-truncation decode failure (corruption) and makes
// it sticky.
func (r *Reader) fail(err error) error {
	r.err = err
	return err
}

// Next returns the next span, or io.EOF at a clean end of stream. A
// stream that ends inside a record yields a *TraceTruncatedError. After
// any non-EOF error the reader is poisoned and returns the same error.
func (r *Reader) Next() (*Span, error) {
	if r.err != nil {
		return nil, r.err
	}
	op, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end at a record boundary
		}
		return nil, r.fail(err)
	}
	start := r.r.Offset() - 1
	if op != opSpan {
		return nil, r.fail(fmt.Errorf("trace: unknown opcode %d at span %d (byte offset %d)", op, r.spans, start))
	}
	n, err := r.r.Uvarint()
	if err != nil {
		return nil, r.truncated(start, "span length", err)
	}
	if n > maxSpanPayload {
		return nil, r.fail(fmt.Errorf("trace: implausible span length %d at span %d (byte offset %d)", n, r.spans, start))
	}
	if r.payload, err = r.r.Append(r.payload[:0], int(n)); err != nil {
		return nil, r.truncated(start, "span payload", err)
	}
	if err := r.decodeSpan(r.payload, start); err != nil {
		return nil, err
	}
	r.spans++
	return &r.span, nil
}

// decodeSpan unpacks one span payload into the reader's reusable span.
func (r *Reader) decodeSpan(buf []byte, start int64) error {
	pos := 0
	var err error // the first field that failed to decode
	u := func() uint64 {
		var v uint64
		if err == nil {
			v, pos, err = framing.Uvarint(buf, pos)
		}
		return v
	}
	sp := &r.span
	sp.Tick = int64(u())
	sp.Shard = uint32(u())
	sp.Seq = uint32(u())
	sp.Parent = u()
	sp.Kind = Kind(u())
	sp.Action = uint8(u())
	sp.Code = uint8(u())
	sp.Actor = u()
	sp.Target = u()
	sp.Post = u()
	sp.ASN = uint32(u())
	if err == nil {
		sp.Value, pos, err = framing.Varint(buf, pos)
	}
	sp.Start = int64(u())
	sp.Wall = int64(u())
	nstages := u()
	if err != nil {
		return r.truncated(start, "span fields", io.ErrUnexpectedEOF)
	}
	if nstages > maxSpanStages {
		return r.fail(fmt.Errorf("trace: implausible stage count %d at span %d (byte offset %d)", nstages, r.spans, start))
	}
	sp.Stages = sp.Stages[:0]
	for i := uint64(0); i < nstages; i++ {
		st := Stage(u())
		verdict := uint8(u())
		ns := int64(u())
		if err != nil {
			return r.truncated(start, "span stages", io.ErrUnexpectedEOF)
		}
		sp.Stages = append(sp.Stages, StageRec{Stage: st, Verdict: verdict, Ns: ns})
	}
	if pos != len(buf) {
		return r.fail(fmt.Errorf("trace: span payload has %d trailing bytes at span %d (byte offset %d)", len(buf)-pos, r.spans, start))
	}
	return nil
}
