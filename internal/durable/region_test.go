package durable

import (
	"bytes"
	"errors"
	"path"
	"strings"
	"testing"

	"footsteps/internal/eventio"
)

// eventRecords encodes testEvents(n) with one writer and returns each
// event's record bytes, preceded by its string-table record when the
// event is the first to use its client, so tests can frame them at will.
func eventRecords(t *testing.T, n int) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, ev := range testEvents(n) {
		prev := buf.Len()
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(buf.Bytes()[prev:]))
	}
	out[0] = out[0][len(eventio.StreamMagic()):] // the magic lands with the first flush
	return out
}

// craftedFrame is one data frame of a hand-built log: its payload and
// the cumulative event count its header claims.
type craftedFrame struct {
	events  uint64
	payload []byte
}

// craftLog writes a durable log by hand, with a valid CRC on every
// frame: segment 0 sealed and holding frames, an empty live segment 1,
// and a genesis manifest whose live offset is segment 1's header and
// whose event count is events. It returns the file system and the byte
// offset of each frame in segment 0.
func craftLog(t *testing.T, frames []craftedFrame, events uint64) (*MemFS, []int64) {
	t.Helper()
	seg := segHeader(nil, 0)
	var offs []int64
	var total, last uint64
	for _, f := range frames {
		offs = append(offs, int64(len(seg)))
		seg = appendFrame(seg, frameData, f.events, f.payload)
		total += uint64(len(f.payload))
		last = f.events
	}
	seg = appendFrame(seg, frameFooter, last, footerPayload(nil, uint64(len(frames)), total, last))

	fsys := NewMemFS()
	if err := fsys.MkdirAll("log"); err != nil {
		t.Fatal(err)
	}
	opt := testOpts()
	m := Manifest{Version: manifestVersion, Seed: opt.Seed, Fingerprint: opt.Fingerprint,
		LiveSegment: 1, LiveOffset: segHeaderLen, Events: events}
	for name, data := range map[string][]byte{
		segName(0):   seg,
		segName(1):   segHeader(nil, 1),
		manifestName: m.encode(),
	} {
		f, err := fsys.Create(path.Join("log", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	return fsys, offs
}

// TestResumeRegionTypedErrors builds logs whose every CRC is valid but
// whose durable region breaks one FSEV1 or count rule. Resume must
// return a *CorruptError naming the segment file and the byte offset of
// the bad record, frame or region end.
func TestResumeRegionTypedErrors(t *testing.T) {
	t.Parallel()
	recs := eventRecords(t, 6)
	join := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	first := join(recs[:3]...) // three events, each with its string record
	// A string record for a new client and an event that uses it, split
	// inside the string body, and an event record split in its fields.
	str, ev := recs[3][:len("client-3")+2], recs[3][len("client-3")+2:]

	seg0 := path.Join("log", segName(0))
	cases := []struct {
		name   string
		frames []craftedFrame
		events uint64
		file   string
		// at returns the expected error offset from the frame offsets.
		at   func(offs []int64) int64
		want string
	}{
		{
			name:   "unknown opcode",
			frames: []craftedFrame{{3, first}, {4, join(recs[3], []byte{0x7f})}},
			events: 4, file: seg0,
			at:   func(o []int64) int64 { return o[1] + frameHeaderLen + int64(len(recs[3])) },
			want: "unknown opcode 127",
		},
		{
			name: "dangling string ref",
			// Ten one-byte fields; the ninth, the client ref, names
			// string 9 of a three-string table.
			frames: []craftedFrame{{3, first}, {4, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0}}},
			events: 4, file: seg0,
			at:   func(o []int64) int64 { return o[1] + frameHeaderLen },
			want: "dangling string ref 9",
		},
		{
			name:   "string record cut at frame end",
			frames: []craftedFrame{{3, join(first, str[:4])}, {4, join(str[4:], ev)}},
			events: 4, file: seg0,
			at:   func(o []int64) int64 { return o[0] + frameHeaderLen + int64(len(first)) },
			want: "string body",
		},
		{
			name:   "event record cut at frame end",
			frames: []craftedFrame{{3, join(first, str, ev[:5])}, {4, ev[5:]}},
			events: 4, file: seg0,
			at:   func(o []int64) int64 { return o[0] + frameHeaderLen + int64(len(first)+len(str)) },
			want: "event record",
		},
		{
			name:   "frame count disagrees with header",
			frames: []craftedFrame{{2, first}, {6, join(recs[3:]...)}},
			events: 6, file: seg0,
			at:   func(o []int64) int64 { return o[0] },
			want: "frame holds 3 events, but its header's cumulative count is 2 after 0",
		},
		{
			name:   "manifest count disagrees with region",
			frames: []craftedFrame{{3, first}, {6, join(recs[3:]...)}},
			events: 7, file: path.Join("log", segName(1)),
			at:   func([]int64) int64 { return segHeaderLen },
			want: "durable region holds 6 events, manifest says 7",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fsys, offs := craftLog(t, tc.frames, tc.events)
			_, err := Resume(fsys, "log", testOpts())
			var cerr *CorruptError
			if !errors.As(err, &cerr) {
				t.Fatalf("Resume = %v, want *CorruptError", err)
			}
			if cerr.Path != tc.file || cerr.Offset != tc.at(offs) {
				t.Errorf("error names %s at offset %d, want %s at offset %d", cerr.Path, cerr.Offset, tc.file, tc.at(offs))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The same frames with consistent counts resume cleanly, so each
	// case above fails for its one broken rule.
	fsys, _ := craftLog(t, []craftedFrame{{3, first}, {6, join(recs[3:]...)}}, 6)
	l, err := Resume(fsys, "log", testOpts())
	if err != nil {
		t.Fatalf("well-formed crafted log: %v", err)
	}
	if got := l.Events(); got != 6 {
		t.Fatalf("resumed log counts %d events, want 6", got)
	}
}
