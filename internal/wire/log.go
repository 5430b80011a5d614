package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"footsteps/internal/framing"
)

// The FING1 ingress log records exactly the network inputs the world
// loop consumed: for every drain that admitted at least one envelope, a
// batch record carrying the simulated instant of the drain and the raw
// envelope bytes, in admission order; and one final end record carrying
// the instant the serve loop stopped. Replaying the log — RunUntil(t),
// apply batch, repeat, RunUntil(end) — reproduces the run's FSEV1 stream
// byte for byte (see docs/API.md, "Determinism and replay").
//
// Envelope-level rejections (malformed JSON, bad version, oversize) are
// decided from the bytes alone before admission and are never logged;
// only envelopes that reached the world loop appear here.
//
// Layout: magic "FING1\n", then records. Each record is an op byte —
// logOpBatch or logOpEnd — followed by the drain instant as a uvarint of
// nanoseconds since the Unix epoch. A batch adds a uvarint envelope
// count, then for each envelope a uvarint length and the raw bytes.

// LogMagic identifies an ingress log stream.
const LogMagic = "FING1\n"

const (
	logOpBatch = 0
	logOpEnd   = 1
)

// maxLogBatch bounds the declared envelope count of a single batch
// record so a corrupt or hostile length prefix cannot force a giant
// allocation before the decoder notices the stream is short.
const maxLogBatch = 1 << 20

// ErrBadLogMagic reports a stream that does not start with LogMagic.
var ErrBadLogMagic = errors.New("wire: not a FING1 ingress log (bad magic)")

// TruncatedError reports an ingress log that ends mid-record. Offset is
// the byte position at which the decoder ran out of input.
type TruncatedError struct {
	Offset int64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("wire: truncated ingress log at byte %d", e.Offset)
}

// CorruptLogError reports a structurally invalid record.
type CorruptLogError struct {
	Offset int64
	Reason string
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("wire: corrupt ingress log at byte %d: %s", e.Offset, e.Reason)
}

// LogRecord is one decoded ingress-log record. End is true for the
// final record, which carries no envelopes.
type LogRecord struct {
	// AtNanos is the simulated drain instant, nanoseconds since the
	// Unix epoch.
	AtNanos int64
	// Envelopes are the raw request envelope bytes admitted at that
	// instant, in admission order. Nil on the end record. They alias
	// the reader's batch buffer: valid until the next call to Next.
	Envelopes [][]byte
	// End marks the final record.
	End bool
}

// LogWriter appends ingress records to a stream. Not safe for
// concurrent use; the serve loop is its only writer.
type LogWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewLogWriter writes the FING1 magic and returns a writer positioned
// for the first record.
func NewLogWriter(w io.Writer) (*LogWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(LogMagic); err != nil {
		return nil, err
	}
	return &LogWriter{w: bw}, nil
}

func (lw *LogWriter) uvarint(v uint64) {
	if lw.err != nil {
		return
	}
	n := binary.PutUvarint(lw.buf[:], v)
	_, lw.err = lw.w.Write(lw.buf[:n])
}

// Batch records the envelopes drained at the simulated instant atNanos.
// Empty batches need not be recorded — consecutive RunUntil calls with
// no interleaved mutation compose — but recording one is harmless.
func (lw *LogWriter) Batch(atNanos int64, envelopes [][]byte) error {
	if lw.err == nil {
		lw.err = lw.w.WriteByte(logOpBatch)
	}
	lw.uvarint(uint64(atNanos))
	lw.uvarint(uint64(len(envelopes)))
	for _, env := range envelopes {
		lw.uvarint(uint64(len(env)))
		if lw.err == nil {
			_, lw.err = lw.w.Write(env)
		}
	}
	return lw.err
}

// End records the final simulated instant and flushes. The log is
// complete only after End; a reader treats its absence as truncation.
func (lw *LogWriter) End(atNanos int64) error {
	if lw.err == nil {
		lw.err = lw.w.WriteByte(logOpEnd)
	}
	lw.uvarint(uint64(atNanos))
	if lw.err == nil {
		lw.err = lw.w.Flush()
	}
	return lw.err
}

// Flush forces buffered records to the underlying writer without
// ending the log (used before checkpoints).
func (lw *LogWriter) Flush() error {
	if lw.err == nil {
		lw.err = lw.w.Flush()
	}
	return lw.err
}

// LogReader decodes an ingress log sequentially. It decodes each batch
// into one buffer that it reuses for the next, so a record's envelopes
// are valid only until the next call to Next.
type LogReader struct {
	r    *framing.Reader
	done bool
	buf  []byte   // envelope bytes of the current batch
	envs [][]byte // the current batch's envelopes, slicing buf
}

// NewLogReader checks the magic and returns a reader positioned at the
// first record.
func NewLogReader(r io.Reader) (*LogReader, error) {
	fr := framing.NewReader(r)
	ok, err := fr.Magic([]byte(LogMagic))
	if err != nil {
		return nil, &TruncatedError{Offset: 0}
	}
	if !ok {
		return nil, ErrBadLogMagic
	}
	return &LogReader{r: fr}, nil
}

// uvarint reads one uvarint. A varint past 64 bits is corrupt; any
// other failure means the stream stopped inside it.
func (lr *LogReader) uvarint() (uint64, error) {
	v, err := lr.r.Uvarint()
	if errors.Is(err, framing.ErrOverflow) {
		return 0, &CorruptLogError{Offset: lr.r.Offset(), Reason: err.Error()}
	}
	if err != nil {
		return 0, &TruncatedError{Offset: lr.r.Offset()}
	}
	return v, nil
}

// Next returns the next record, io.EOF after the end record, a
// *TruncatedError if the stream stops mid-record or before any end
// record, and a *CorruptLogError on structural damage.
func (lr *LogReader) Next() (LogRecord, error) {
	if lr.done {
		return LogRecord{}, io.EOF
	}
	op, err := lr.r.ReadByte()
	if err != nil {
		return LogRecord{}, &TruncatedError{Offset: lr.r.Offset()} // no end record seen
	}
	if op != logOpBatch && op != logOpEnd {
		return LogRecord{}, &CorruptLogError{Offset: lr.r.Offset() - 1, Reason: fmt.Sprintf("unknown record op %d", op)}
	}
	at, err := lr.uvarint()
	if err != nil {
		return LogRecord{}, err
	}
	rec := LogRecord{AtNanos: int64(at)}
	if op == logOpEnd {
		rec.End = true
		lr.done = true
		return rec, nil
	}
	count, err := lr.uvarint()
	if err != nil {
		return LogRecord{}, err
	}
	if count > maxLogBatch {
		return LogRecord{}, &CorruptLogError{Offset: lr.r.Offset(), Reason: fmt.Sprintf("batch declares %d envelopes (max %d)", count, maxLogBatch)}
	}
	// The buffers grow only as envelopes arrive, so a lying count or size
	// costs at most one envelope's cap beyond what the bytes read need.
	lr.buf, lr.envs = lr.buf[:0], lr.envs[:0]
	for i := uint64(0); i < count; i++ {
		size, err := lr.uvarint()
		if err != nil {
			return LogRecord{}, err
		}
		off := lr.r.Offset()
		if size > MaxEnvelopeBytes {
			return LogRecord{}, &CorruptLogError{Offset: off, Reason: fmt.Sprintf("envelope declares %d bytes (max %d)", size, MaxEnvelopeBytes)}
		}
		start := len(lr.buf)
		if lr.buf, err = lr.r.Append(lr.buf, int(size)); err != nil {
			return LogRecord{}, &TruncatedError{Offset: off}
		}
		lr.envs = append(lr.envs, lr.buf[start:])
	}
	// Growing buf may have moved it: re-slice every envelope from the
	// final buffer, capped so an append cannot run into the next one.
	start := 0
	for i, env := range lr.envs {
		end := start + len(env)
		lr.envs[i] = lr.buf[start:end:end]
		start = end
	}
	rec.Envelopes = lr.envs
	return rec, nil
}
