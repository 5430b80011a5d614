package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"strings"

	"footsteps/internal/framing"
)

// Segment file layout:
//
//	header := "FSEG1\n" | segment index (8 bytes LE)
//	frame  := kind (1) | payload len (4 LE) | cumulative events (8 LE)
//	          | CRC32C (4 LE) | payload
//	footer := frame with kind=frameFooter whose payload is
//	          uvarint(data frames) | uvarint(payload bytes) |
//	          uvarint(cumulative events)
//
// The CRC covers the first 13 header bytes (kind, length, events) plus
// the payload, so a bit flip anywhere in the frame is caught. Data
// frame payloads are raw eventio record bytes, cut on record
// boundaries: a record never crosses a frame's end. The events field is
// the cumulative count across the whole log through the end of the
// frame. Resume enforces both: it scans each durable data frame's
// payload as whole records and requires it to hold exactly the events
// its header adds to the previous frame's. A sealed segment ends with
// exactly one footer frame and nothing after it.

const (
	frameData   byte = 1
	frameFooter byte = 2

	frameHeaderLen  = 17 // kind(1) + len(4) + events(8) + crc(4)
	segHeaderLen    = 14 // magic(6) + index(8)
	maxFramePayload = 1 << 28
)

var segMagic = []byte("FSEG1\n")

// segName returns the file name of segment idx. Zero-padding keeps
// lexical ReadDir order equal to numeric order.
func segName(idx uint64) string { return fmt.Sprintf("seg-%05d.fseg", idx) }

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".fseg")
	if !ok || len(rest) == 0 {
		return 0, false
	}
	var idx uint64
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

// segHeader appends the segment header for idx to dst.
func segHeader(dst []byte, idx uint64) []byte {
	dst = append(dst, segMagic...)
	return binary.LittleEndian.AppendUint64(dst, idx)
}

// appendFrame appends one framed payload to dst and returns it.
func appendFrame(dst []byte, kind byte, events uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, events)
	crc := crc32Of(dst[start:start+13], payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

func crc32Of(header, payload []byte) uint32 {
	crc := crc32.Checksum(header, castagnoli)
	return crc32.Update(crc, castagnoli, payload)
}

// footerPayload appends the footer body for a segment with the given
// totals.
func footerPayload(dst []byte, frames uint64, payloadBytes uint64, events uint64) []byte {
	dst = binary.AppendUvarint(dst, frames)
	dst = binary.AppendUvarint(dst, payloadBytes)
	return binary.AppendUvarint(dst, events)
}

// Frame is one validated frame yielded by scanSegment. Payload aliases
// the scanned buffer.
type Frame struct {
	Kind    byte
	Events  uint64 // cumulative events through the end of this frame
	Offset  int64  // byte offset of the frame start within the segment
	Payload []byte
}

// segScan is the result of validating one segment file.
type segScan struct {
	Index   uint64
	Frames  []Frame
	Sealed  bool   // ends with a valid footer frame and nothing after
	DataLen uint64 // total data-frame payload bytes
	Events  uint64 // cumulative events through the last valid frame
	End     int64  // byte offset just past the last valid frame
	Torn    *TornTailError
}

// scanSegment walks every frame in data, verifying checksums. It never
// fails outright on tail damage: the valid prefix is returned and Torn
// describes the first bad frame. A malformed header is reported as a
// CorruptError via err; tail damage is not an error here — callers
// decide whether a torn tail is fatal.
func scanSegment(name string, data []byte) (*segScan, error) {
	if len(data) < segHeaderLen || !bytes.Equal(data[:len(segMagic)], segMagic) {
		return nil, &CorruptError{Path: name, Offset: 0, Err: fmt.Errorf("bad segment header (%d bytes)", len(data))}
	}
	s := &segScan{Index: binary.LittleEndian.Uint64(data[len(segMagic):segHeaderLen])}
	off := int64(segHeaderLen)
	s.End = off
	for off < int64(len(data)) {
		frameIdx := len(s.Frames)
		if s.Sealed {
			// Bytes after a footer can only be crash garbage.
			s.Torn = &TornTailError{Segment: name, Frame: frameIdx, Offset: off,
				Err: fmt.Errorf("%d trailing bytes after sealed footer", int64(len(data))-off)}
			s.Sealed = false
			break
		}
		if int64(len(data))-off < frameHeaderLen {
			s.Torn = &TornTailError{Segment: name, Frame: frameIdx, Offset: off,
				Err: fmt.Errorf("incomplete frame header (%d of %d bytes)", int64(len(data))-off, frameHeaderLen)}
			break
		}
		hdr := data[off : off+frameHeaderLen]
		kind := hdr[0]
		plen := int64(binary.LittleEndian.Uint32(hdr[1:5]))
		events := binary.LittleEndian.Uint64(hdr[5:13])
		want := binary.LittleEndian.Uint32(hdr[13:17])
		if (kind != frameData && kind != frameFooter) || plen > maxFramePayload {
			s.Torn = &TornTailError{Segment: name, Frame: frameIdx, Offset: off,
				Err: fmt.Errorf("invalid frame header (kind %d, len %d)", kind, plen)}
			break
		}
		if int64(len(data))-off-frameHeaderLen < plen {
			s.Torn = &TornTailError{Segment: name, Frame: frameIdx, Offset: off,
				Err: fmt.Errorf("frame extends past end of segment (need %d payload bytes, have %d)",
					plen, int64(len(data))-off-frameHeaderLen)}
			break
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+plen]
		if got := crc32Of(hdr[:13], payload); got != want {
			s.Torn = &TornTailError{Segment: name, Frame: frameIdx, Offset: off, Want: want, Got: got}
			break
		}
		s.Frames = append(s.Frames, Frame{Kind: kind, Events: events, Offset: off, Payload: payload})
		off += frameHeaderLen + plen
		s.End = off
		switch kind {
		case frameData:
			s.DataLen += uint64(plen)
			s.Events = events
		case frameFooter:
			// The footer's events total is log-cumulative (like every
			// frame header's); the frame and byte totals are per-segment.
			frames, pbytes, fevents, ok := decodeFooter(payload)
			if !ok || frames != s.dataFrames() || pbytes != s.DataLen || fevents != events ||
				(s.dataFrames() > 0 && fevents != s.Events) {
				s.Frames = s.Frames[:len(s.Frames)-1]
				s.End = off - (frameHeaderLen + plen)
				s.Torn = &TornTailError{Segment: name, Frame: frameIdx, Offset: s.End,
					Err: fmt.Errorf("footer totals disagree with segment contents")}
				return s, nil
			}
			s.Events = events
			s.Sealed = true
		}
	}
	return s, nil
}

func (s *segScan) dataFrames() uint64 {
	var n uint64
	for _, f := range s.Frames {
		if f.Kind == frameData {
			n++
		}
	}
	return n
}

func decodeFooter(p []byte) (frames, payloadBytes, events uint64, ok bool) {
	frames, i, err := framing.Uvarint(p, 0)
	if err == nil {
		payloadBytes, i, err = framing.Uvarint(p, i)
	}
	if err == nil {
		events, i, err = framing.Uvarint(p, i)
	}
	if err != nil || i != len(p) {
		return 0, 0, 0, false
	}
	return frames, payloadBytes, events, true
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(fsys FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// SegmentInfo summarizes one verified segment for VerifyDir reports.
type SegmentInfo struct {
	Name    string
	Index   uint64
	Bytes   int64  // file size
	Frames  int    // valid frames (data + footer)
	Events  uint64 // cumulative events through the segment's last frame
	Payload uint64 // data payload bytes
	Sealed  bool
}

// VerifyDir CRC-checks every segment in a durable log directory. It
// returns one SegmentInfo per segment (in index order) and the first
// validation error: a TornTailError naming the segment, frame, offset
// and expected/actual checksum, or a CorruptError for structural
// damage (bad header, missing index, manifest problems are not
// checked here). The returned infos cover everything scanned before
// the error, so partial reports stay useful.
func VerifyDir(fsys FS, dir string) ([]SegmentInfo, error) {
	idxs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	var next uint64
	for i, idx := range idxs {
		name := segName(idx)
		if idx != next {
			return infos, &CorruptError{Path: path.Join(dir, name), Offset: -1,
				Err: fmt.Errorf("segment index gap: expected %s next", segName(next))}
		}
		next = idx + 1
		data, err := fsys.ReadFile(path.Join(dir, name))
		if err != nil {
			return infos, &CorruptError{Path: path.Join(dir, name), Offset: -1, Err: err}
		}
		s, err := scanSegment(name, data)
		if err != nil {
			return infos, err
		}
		infos = append(infos, SegmentInfo{
			Name: name, Index: idx, Bytes: int64(len(data)),
			Frames: len(s.Frames), Events: s.Events, Payload: s.DataLen, Sealed: s.Sealed,
		})
		if s.Torn != nil {
			return infos, s.Torn
		}
		if !s.Sealed && i != len(idxs)-1 {
			return infos, &CorruptError{Path: path.Join(dir, name), Offset: s.End,
				Err: fmt.Errorf("non-final segment is not sealed")}
		}
	}
	return infos, nil
}
