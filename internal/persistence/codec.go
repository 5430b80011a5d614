// Package persistence implements the FSNAP world-snapshot format: a
// versioned binary encoding of everything the simulation step path
// touches, written at day boundaries and restored into a world built
// without the population it overwrites (see docs/PERSISTENCE.md).
//
// This package owns the wire layout, one implementation per section.
// A section is written from row sources and decoded into loaders
// (internal/snaprow): a live world passes its components, which read
// rows straight out of their tables and load decoded rows into staged
// tables, so neither direction builds a whole-world copy. WorldState,
// the plain-struct fixture the codec tests and fuzz targets build,
// goes through the same section code.
//
// The current format is FSNAP2, which delta-encodes the sorted
// adjacency lists that dominate large-world snapshots. FSNAP1 streams
// (written before the struct-of-arrays state refactor) still decode:
// the magic selects the wire version, and the decoder keeps both list
// readers.
//
// The format is built from uvarint integers, length-prefixed strings and
// a fixed magic header. Its varints are read with internal/framing, the
// decoder every binary format shares; this package adds the rule that
// they be minimally encoded, its caps, and typed errors with byte
// offsets so a truncated or corrupt checkpoint is diagnosable. The
// decoder is hardened against arbitrary input — it must never panic and
// never allocate proportionally to a lying length prefix — because the
// snapshot fuzz targets feed it garbage. Loaders size their tables from
// Rows' hint, which a count can only raise as far as the bytes left in
// the input could hold.
//
// Decoding allocates per section and per shared array, not per row:
// each list's rows are decoded into one reused row value, strings are
// substrings of shared chunks (Decoder.Str), and the per-row lists of
// the big sections are cut from shared arrays, each capped at its own
// length. Every one of those arrays is sized by the input left too.
package persistence

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"footsteps/internal/framing"
	"footsteps/internal/rng"
)

// Version is the current snapshot format version. Bump it on any layout
// change; snapshots from unknown versions are rejected with a
// MismatchError rather than misread (see docs/PERSISTENCE.md for the
// versioning policy). VersionV1 streams remain decodable.
const (
	Version   = 2
	VersionV1 = 1
)

// magic identifies a current-format snapshot stream. Deliberately
// distinct from the FSEV1 event-log magic so the two file kinds cannot
// be confused. magicV1 is the legacy magic the decoder still accepts.
var (
	magic   = []byte("FSNAP2\n")
	magicV1 = []byte("FSNAP1\n")
)

// maxStr caps decoded string lengths; nothing in a snapshot comes close.
const maxStr = 1 << 20

// maxCount caps decoded element counts. Real snapshots stay well under
// this; a corrupt length prefix fails fast instead of driving a huge loop.
const maxCount = 1 << 26

// ErrBadMagic reports input that starts with neither FSNAP magic.
var ErrBadMagic = errors.New("persistence: bad magic (not an FSNAP snapshot)")

// MismatchError reports a snapshot whose header is incompatible with
// what the caller expects: wrong format version, wrong seed, or wrong
// config fingerprint.
type MismatchError struct {
	Field string
	Got   uint64
	Want  uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("persistence: snapshot %s mismatch: got %#x, want %#x", e.Field, e.Got, e.Want)
}

// TruncatedError reports input that ended (or turned to garbage) before
// the structure was complete, with the byte offset where decoding failed.
type TruncatedError struct {
	Offset int64
	Err    error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("persistence: truncated or corrupt snapshot at offset %d: %v", e.Offset, e.Err)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// StateError reports a snapshot that decoded cleanly but whose contents
// break a structural invariant of the component restoring it: duplicate
// or descending IDs, an ID past its allocator's counter, or counters
// that disagree between components.
type StateError struct {
	Component string
	Err       error
}

func (e *StateError) Error() string {
	return fmt.Sprintf("persistence: corrupt %s state in snapshot: %v", e.Component, e.Err)
}

func (e *StateError) Unwrap() error { return e.Err }

// Encoder builds a snapshot byte stream with append-only primitives.
type Encoder struct {
	buf  []byte
	rows int // rows written from row sources, to check their counts
}

// NewEncoder returns an encoder that appends to buf, such as the spare
// capacity bytes.Buffer.AvailableBuffer returns.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its buffer for the next snapshot.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more bytes without another reallocation.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.buf = append(make([]byte, 0, len(e.buf)+n), e.buf...)
	}
}

// Raw appends bytes verbatim (used for the magic header).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zigzag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends a signed integer.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 as 8 fixed little-endian bytes (bit-exact).
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Time appends an instant as uvarint nanoseconds since the Unix epoch,
// with 0 reserved for the zero time. The simulation clock starts in
// 2017, so no real instant collides with the sentinel.
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.U64(0)
		return
	}
	e.U64(uint64(t.UnixNano()))
}

// Addr appends an IPv4 address as a presence flag plus the big-endian
// address bits. The simulated internet is IPv4-only.
func (e *Encoder) Addr(a netip.Addr) {
	if !a.IsValid() || !a.Is4() {
		e.Bool(false)
		return
	}
	e.Bool(true)
	b := a.As4()
	e.U64(uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3]))
}

// RNG appends an rng.State (four words plus lineage).
func (e *Encoder) RNG(st rng.State) {
	for _, w := range st.S {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, w)
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, st.Lineage)
}

// Decoder consumes a snapshot byte stream. Errors are sticky: after the
// first failure every primitive returns its zero value, so composite
// decoders can run straight-line and check Err once per structure.
// Varints must be minimally encoded, as the Encoder writes them, so a
// stream that decodes has exactly one encoding.
type Decoder struct {
	data []byte
	off  int
	err  error
	strs strings.Builder // the chunk Str copies strings into
}

// NewDecoder wraps a fully read snapshot stream.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decoding failure, if any.
func (d *Decoder) Err() error { return d.err }

// Offset returns the current byte offset.
func (d *Decoder) Offset() int64 { return int64(d.off) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &TruncatedError{Offset: int64(d.off), Err: fmt.Errorf(format, args...)}
	}
}

// Magic consumes the FSNAP magic and returns the wire version it names
// (Version for FSNAP2, VersionV1 for FSNAP1; 0 with ErrBadMagic set on
// anything else).
func (d *Decoder) Magic() uint64 {
	if d.err != nil {
		return 0
	}
	rest := d.data[d.off:]
	switch {
	case len(rest) >= len(magic) && string(rest[:len(magic)]) == string(magic):
		d.off += len(magic)
		return Version
	case len(rest) >= len(magicV1) && string(rest[:len(magicV1)]) == string(magicV1):
		d.off += len(magicV1)
		return VersionV1
	}
	d.err = ErrBadMagic
	return 0
}

// U64 consumes an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, next, err := framing.Uvarint(d.data, d.off)
	if err != nil {
		d.fail("short or overlong uvarint")
		return 0
	}
	if next-d.off > 1 && d.data[next-1] == 0 {
		d.fail("non-minimal uvarint")
		return 0
	}
	d.off = next
	return v
}

// I64 consumes a signed (zigzag) varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, next, err := framing.Varint(d.data, d.off)
	if err != nil {
		d.fail("short or overlong varint")
		return 0
	}
	if next-d.off > 1 && d.data[next-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.off = next
	return v
}

// Int consumes a signed integer.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool consumes a 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.fail("short bool")
		return false
	}
	b := d.data[d.off]
	if b > 1 {
		d.fail("bad bool byte %#x", b)
		return false
	}
	d.off++
	return b == 1
}

// F64 consumes 8 fixed bytes as a float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.off < 8 {
		d.fail("short float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

// strChunk caps the size of the chunks Str copies strings into.
const strChunk = 64 << 10

// Str consumes a length-prefixed string. The string is copied into a
// chunk shared with the strings decoded before it and returned as a
// substring of that chunk, so a section's strings cost one allocation
// per chunk, not one per string. A chunk holds min(64 KiB, the bytes
// left in the input), or the one string if it is longer, so a lying
// length prefix allocates no more than the input holds. An empty string
// allocates nothing.
func (d *Decoder) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > maxStr {
		d.fail("string length %d exceeds cap %d", n, maxStr)
		return ""
	}
	if uint64(len(d.data)-d.off) < n {
		d.fail("short string: need %d bytes, have %d", n, len(d.data)-d.off)
		return ""
	}
	if n == 0 {
		return ""
	}
	b := d.data[d.off : d.off+int(n)]
	if d.strs.Cap()-d.strs.Len() < len(b) {
		d.strs.Reset()
		d.strs.Grow(max(len(b), min(strChunk, len(d.data)-d.off)))
	}
	d.off += int(n)
	start := d.strs.Len()
	d.strs.Write(b)
	return d.strs.String()[start:]
}

// Count consumes an element count, bounded so a corrupt prefix cannot
// drive a runaway loop or allocation.
func (d *Decoder) Count() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > maxCount {
		d.fail("element count %d exceeds cap %d", n, maxCount)
		return 0
	}
	return int(n)
}

// Rows consumes a list's element count and returns it with a capacity
// hint for the list's loader: the count, capped by how many rows of at
// least minRow bytes the rest of the input could hold. A lying prefix
// therefore sizes nothing past the input's own length; the row loop
// then fails at the end of the input, as it would have without the
// hint.
func (d *Decoder) Rows(minRow int) (n, hint int) {
	n = d.Count()
	return n, min(n, (len(d.data)-d.off)/max(minRow, 1))
}

// Time consumes an instant (0 means the zero time).
func (d *Decoder) Time() time.Time {
	ns := d.U64()
	if d.err != nil || ns == 0 {
		return time.Time{}
	}
	if ns > math.MaxInt64 {
		d.fail("time %d overflows int64 nanoseconds", ns)
		return time.Time{}
	}
	return time.Unix(0, int64(ns)).UTC()
}

// Addr consumes an IPv4 address (presence flag plus bits).
func (d *Decoder) Addr() netip.Addr {
	if !d.Bool() {
		return netip.Addr{}
	}
	bits := d.U64()
	if d.err != nil {
		return netip.Addr{}
	}
	if bits > math.MaxUint32 {
		d.fail("IPv4 bits %#x overflow 32 bits", bits)
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte{byte(bits >> 24), byte(bits >> 16), byte(bits >> 8), byte(bits)})
}

// RNG consumes an rng.State.
func (d *Decoder) RNG() rng.State {
	if d.err != nil {
		return rng.State{}
	}
	if len(d.data)-d.off < 40 {
		d.fail("short rng state")
		return rng.State{}
	}
	var st rng.State
	for i := range st.S {
		st.S[i] = binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
	}
	st.Lineage = binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return st
}

// Done verifies the stream was fully consumed. Trailing bytes are an
// error: they mean the reader and writer disagree about the layout.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return &TruncatedError{
			Offset: int64(d.off),
			Err:    fmt.Errorf("%d trailing bytes after snapshot end", len(d.data)-d.off),
		}
	}
	return nil
}
