// Package framing is the byte-level reading every binary format in the
// simulator shares: the FSEV1 event capture (internal/eventio), the
// FTRC1 trace (internal/trace), the FING1 ingress log (internal/wire),
// FSNAP snapshots (internal/persistence) and the durable log's frame
// footers and FMAN1 manifest (internal/durable).
//
// It holds the only varint decoders and the only byte-counting stream
// reader. The formats keep their own layouts, caps and error types; what
// they share here is how a varint, a length-prefixed run of bytes or a
// magic header is read, and which byte offset a failure names.
package framing

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"slices"
)

// ErrOverflow reports a varint that does not fit 64 bits. It is
// encoding/binary's own overflow error, which binary.ReadUvarint returns
// but the package does not export, so errors.Is matches it whichever
// decoder failed.
var ErrOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}))
	return err
}()

// Uvarint decodes the uvarint at p[i:] and returns it with the offset
// just past it. It follows binary.ReadUvarint's rules: input that ends
// inside the varint is io.ErrUnexpectedEOF, and a tenth byte above 1 or
// a tenth continuation byte is ErrOverflow.
func Uvarint(p []byte, i int) (v uint64, next int, err error) {
	var s uint
	for k := 0; k < binary.MaxVarintLen64; k++ {
		if i >= len(p) {
			return 0, i, io.ErrUnexpectedEOF
		}
		b := p[i]
		i++
		if b < 0x80 {
			if k == binary.MaxVarintLen64-1 && b > 1 {
				return 0, i, ErrOverflow
			}
			return v | uint64(b)<<s, i, nil
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, i, ErrOverflow
}

// Varint decodes the zigzag-encoded signed varint at p[i:] by Uvarint's
// rules.
func Varint(p []byte, i int) (v int64, next int, err error) {
	u, next, err := Uvarint(p, i)
	v = int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, next, err
}

// Reader reads a stream through one 64 KiB buffer and knows the stream
// offset of the next unread byte. Uvarint and Append report a stream
// that ends inside what they read as io.ErrUnexpectedEOF; ReadByte
// reports io.EOF, which at a record boundary is a clean end.
type Reader struct {
	src counter
	br  *bufio.Reader
}

// counter counts the bytes the buffer has pulled from the source.
type counter struct {
	r io.Reader
	n int64
}

func (c *counter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewReader returns a Reader over r, positioned at offset 0.
func NewReader(r io.Reader) *Reader {
	fr := &Reader{src: counter{r: r}}
	fr.br = bufio.NewReaderSize(&fr.src, 1<<16)
	return fr
}

// Offset returns the stream offset of the next unread byte.
func (r *Reader) Offset() int64 { return r.src.n - int64(r.br.Buffered()) }

// ReadByte reads one byte.
func (r *Reader) ReadByte() (byte, error) { return r.br.ReadByte() }

// Magic reads len(magic) bytes and reports whether they are magic. A
// stream shorter than magic yields io.ReadFull's error instead: io.EOF
// when it is empty, io.ErrUnexpectedEOF when it stops inside the magic.
func (r *Reader) Magic(magic []byte) (bool, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, head); err != nil {
		return false, err
	}
	return bytes.Equal(head, magic), nil
}

// Uvarint reads one uvarint with binary.ReadUvarint, a decoder
// independent of the package's Uvarint, so a test that holds a slice
// decoder to a stream reader (eventio's FuzzScanMatchesReader) still
// compares two implementations.
func (r *Reader) Uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	return v, unexpected(err)
}

// Append reads exactly n bytes onto the end of dst, growing it only
// when its capacity is short, and returns the extended slice.
func (r *Reader) Append(dst []byte, n int) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	_, err := io.ReadFull(r.br, dst[start:])
	return dst, unexpected(err)
}

// unexpected promotes io.EOF, which here always means the stream ended
// inside a record, to io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
