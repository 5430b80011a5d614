package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// class names a decode outcome: a value, input that ends inside the
// varint, or a varint past 64 bits.
func class(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return "short"
	case errors.Is(err, ErrOverflow):
		return "overflow"
	}
	return "other: " + err.Error()
}

// stdlibClass reads the (value, n) result of binary.Uvarint or
// binary.Varint as the outcome framing must give for the same bytes,
// with the bytes it consumes. The slice decoders disagree with
// binary.ReadUvarint in two corners, and framing follows ReadUvarint in
// both: ten continuation bytes that end the input read as short here
// (n == 0) but as an overflow to ReadUvarint, which stops after ten
// bytes whatever follows; and an eleventh byte is counted in n (-11)
// though ReadUvarint never reads it.
func stdlibClass(p []byte, n int) (string, int) {
	switch {
	case n > 0:
		return "ok", n
	case n < 0:
		return "overflow", min(-n, binary.MaxVarintLen64)
	case len(p) == binary.MaxVarintLen64:
		return "overflow", binary.MaxVarintLen64
	}
	return "short", len(p)
}

// FuzzUvarintMatchesStdlib holds Uvarint and Varint to encoding/binary:
// for any bytes, the same value, the same bytes consumed and the same
// outcome (value, short, overflow) as binary.ReadUvarint on a
// bytes.Reader, and as binary.Uvarint/binary.Varint up to the corners
// stdlibClass names. The checked-in corpus covers empty input, the
// 10-byte boundary, both overflow shapes and a non-minimal encoding.
func FuzzUvarintMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		v, next, err := Uvarint(p, 0)

		src := bytes.NewReader(p)
		rv, rerr := binary.ReadUvarint(src)
		if class(err) != class(rerr) || next != len(p)-src.Len() {
			t.Fatalf("Uvarint(%x) = %d, next %d, %v; ReadUvarint = %d, consumed %d, %v",
				p, v, next, err, rv, len(p)-src.Len(), rerr)
		}
		if err == nil && v != rv {
			t.Fatalf("Uvarint(%x) = %d, ReadUvarint %d", p, v, rv)
		}

		sv, n := binary.Uvarint(p)
		if c, used := stdlibClass(p, n); class(err) != c || next != used || (err == nil && v != sv) {
			t.Fatalf("Uvarint(%x) = %d, next %d, %v; binary.Uvarint = %d, %d", p, v, next, err, sv, n)
		}
		iv, inext, ierr := Varint(p, 0)
		sv2, n2 := binary.Varint(p)
		if c, used := stdlibClass(p, n2); class(ierr) != c || inext != used || (ierr == nil && iv != sv2) {
			t.Fatalf("Varint(%x) = %d, next %d, %v; binary.Varint = %d, %d", p, iv, inext, ierr, sv2, n2)
		}

		// Decoding from inside a slice is decoding its tail.
		shifted := append([]byte{0xff}, p...)
		if sv, snext, serr := Uvarint(shifted, 1); sv != v || snext != next+1 || class(serr) != class(err) {
			t.Fatalf("Uvarint at offset 1 = %d, next %d, %v; at 0 = %d, next %d, %v", sv, snext, serr, v, next, err)
		}
	})
}

// TestReaderOffsetsAndMagic walks one stream through every Reader
// read, over sources that deliver it whole, a byte at a time and in
// halves, checking the offset after each step, and then the three
// magic outcomes.
func TestReaderOffsetsAndMagic(t *testing.T) {
	magic := []byte("MAG1\n")
	body := bytes.Repeat([]byte{'x'}, 70_000) // longer than the buffer
	stream := append(append([]byte(nil), magic...), binary.AppendUvarint(nil, uint64(len(body)))...)
	stream = append(append(stream, body...), 0x2a)
	sources := map[string]func([]byte) io.Reader{
		"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"halves":   func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			r := NewReader(src(stream))
			at := func(step string, want int) {
				t.Helper()
				if got := r.Offset(); got != int64(want) {
					t.Fatalf("after %s: offset %d, want %d", step, got, want)
				}
			}
			at("nothing", 0)
			if ok, err := r.Magic(magic); !ok || err != nil {
				t.Fatalf("Magic = %v, %v; want true, nil", ok, err)
			}
			at("magic", len(magic))
			n, err := r.Uvarint()
			if err != nil || n != uint64(len(body)) {
				t.Fatalf("Uvarint = %d, %v; want %d", n, err, len(body))
			}
			at("length", len(magic)+3)
			got, err := r.Append([]byte("kept"), int(n))
			if err != nil || !bytes.Equal(got[4:], body) || string(got[:4]) != "kept" {
				t.Fatalf("Append: %d bytes, %v", len(got), err)
			}
			at("body", len(stream)-1)
			if b, err := r.ReadByte(); b != 0x2a || err != nil {
				t.Fatalf("ReadByte = %#x, %v", b, err)
			}
			at("last byte", len(stream))
			if _, err := r.ReadByte(); err != io.EOF {
				t.Fatalf("ReadByte at the end = %v, want io.EOF", err)
			}
			if _, err := r.Uvarint(); err != io.ErrUnexpectedEOF {
				t.Fatalf("Uvarint at the end = %v, want io.ErrUnexpectedEOF", err)
			}
			if _, err := r.Append(nil, 1); err != io.ErrUnexpectedEOF {
				t.Fatalf("Append at the end = %v, want io.ErrUnexpectedEOF", err)
			}
			at("the end", len(stream))
		})
	}

	for _, tc := range []struct {
		name   string
		stream string
		ok     bool
		err    error
		offset int64
	}{
		{"empty", "", false, io.EOF, 0},
		{"short", "MAG", false, io.ErrUnexpectedEOF, 3},
		{"wrong", "MAG2\nrest", false, nil, 5},
		{"good", "MAG1\nrest", true, nil, 5},
	} {
		r := NewReader(bytes.NewReader([]byte(tc.stream)))
		ok, err := r.Magic(magic)
		if ok != tc.ok || err != tc.err || r.Offset() != tc.offset {
			t.Errorf("%s: Magic = %v, %v at offset %d; want %v, %v at %d", tc.name, ok, err, r.Offset(), tc.ok, tc.err, tc.offset)
		}
	}
}
