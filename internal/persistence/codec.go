// Package persistence implements the FSNAP world-snapshot format: a
// versioned binary encoding of everything the simulation step path
// touches, written at day boundaries and restored into a freshly
// constructed world (see docs/PERSISTENCE.md).
//
// The current format is FSNAP2, which delta-encodes the sorted
// adjacency lists that dominate large-world snapshots. FSNAP1 streams
// (written before the struct-of-arrays state refactor) still decode:
// the magic selects the wire version, and the decoder keeps both list
// readers.
//
// The codec mirrors the FSEV1 event codec in internal/eventio: uvarint
// integers, length-prefixed strings, a fixed magic header, and typed
// errors with byte offsets so a truncated or corrupt checkpoint is
// diagnosable. The decoder is hardened against arbitrary input — it
// must never panic and never allocate proportionally to a lying length
// prefix — because the snapshot fuzz target feeds it garbage.
package persistence

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"time"

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
	buf []byte
}

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

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
type Decoder struct {
	data []byte
	off  int
	err  error
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
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("short or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 consumes a signed (zigzag) varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("short or overlong varint")
		return 0
	}
	d.off += n
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

// Str consumes a length-prefixed string.
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
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
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
