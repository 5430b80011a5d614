package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"

	"footsteps/internal/eventio"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

// Options configures a durable log.
type Options struct {
	// Seed and Fingerprint identify the world; Resume refuses a log
	// whose manifest disagrees (MismatchError).
	Seed        uint64
	Fingerprint uint64
	// BatchEvents is the frame-cut threshold: after this many appended
	// events the open batch is framed, checksummed, and written to the
	// live segment. Default 1024.
	BatchEvents int
	// FsyncEveryBatch forces an fsync after every frame write instead
	// of only at checkpoints — maximal durability, at the cost of one
	// fsync per frame.
	FsyncEveryBatch bool
	// Telemetry receives durable.* counters; nil is fine.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.BatchEvents <= 0 {
		o.BatchEvents = 1024
	}
	return o
}

// Recovery describes what Resume found and repaired.
type Recovery struct {
	CheckpointDay  int
	CheckpointFile string // "" = genesis: restart the world from scratch
	Checkpoint     []byte // FSNAP2 snapshot bytes (nil at genesis)
	Events         uint64 // durable events retained
	// DiscardedFrames / DiscardedEvents count intact frames beyond the
	// checkpoint instant that were dropped — the resumed world
	// re-derives those events deterministically.
	DiscardedFrames int
	DiscardedEvents uint64
	// TornTail is non-nil when the live segment ended mid-frame — the
	// expected signature of a crash during a frame write.
	TornTail *TornTailError
}

// Log is a crash-tolerant FSEV1 event log. Append frames events into
// the live segment; Checkpoint seals the segment, lands a world
// snapshot, and advances the manifest; Close seals without advancing
// it (a later Resume re-derives the tail from the last checkpoint).
//
// I/O errors are sticky: the first one is retained (Err), counted in
// durable.write_errors / durable.fsync_errors, and every later
// operation returns it without touching the filesystem — the
// simulation can keep running with durability lost rather than
// crashing the run.
type Log struct {
	fs  FS
	dir string
	opt Options

	enc     *eventio.Writer
	pending bytes.Buffer // framed-but-unwritten record bytes (record-aligned after enc.Flush)
	batched int          // events in the open batch

	seg        File
	segIndex   uint64
	segOff     int64  // bytes written to the live segment
	segFrames  uint64 // data frames in the live segment
	segPayload uint64 // data payload bytes in the live segment

	ckptDay  uint64
	ckptFile string
	prevCkpt string // kept as a fallback; older ones are pruned

	frameBuf []byte       // reused frame assembly buffer
	ckptBuf  bytes.Buffer // reused checkpoint buffer, Reset per checkpoint

	writeErrs *telemetry.Counter
	fsyncErrs *telemetry.Counter
	frames    *telemetry.Counter
	ckpts     *telemetry.Counter

	firstErr error
	closed   bool
	rec      *Recovery
}

func newLog(fsys FS, dir string, opt Options) *Log {
	l := &Log{fs: fsys, dir: dir, opt: opt}
	if reg := opt.Telemetry; reg != nil {
		l.writeErrs = reg.Counter("durable.write_errors")
		l.fsyncErrs = reg.Counter("durable.fsync_errors")
		l.frames = reg.Counter("durable.frames")
		l.ckpts = reg.Counter("durable.checkpoints")
	}
	return l
}

// Create initializes a fresh durable log in dir. It writes segment 0
// and a genesis manifest (empty checkpoint name), so a crash before the
// first checkpoint still resumes cleanly — from scratch. If dir already
// holds a log, Create fails with ErrExists.
func Create(fsys FS, dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	if _, err := fsys.ReadFile(path.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("durable: %s: %w (pass -resume to continue it)", dir, ErrExists)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	l := newLog(fsys, dir, opt)
	if err := l.startSegment(0); err != nil {
		return nil, err
	}
	if err := l.writeManifest(); err != nil {
		return nil, err
	}
	l.initWriter(nil, 0)
	return l, nil
}

// initWriter builds the eventio encoder over the pending buffer. A
// fresh writer's magic header is flushed and dropped — Reconstruct
// re-prepends it — so frame payloads hold record bytes only.
func (l *Log) initWriter(strs []string, events uint64) {
	if strs == nil && events == 0 {
		enc, _ := eventio.NewWriter(&l.pending) // bytes.Buffer writes cannot fail
		l.enc = enc
		_ = l.enc.Flush()
		l.pending.Reset()
		return
	}
	l.enc = eventio.NewWriterResume(&l.pending, strs, events)
}

// startSegment creates segment idx and writes its header.
func (l *Log) startSegment(idx uint64) error {
	f, err := l.fs.Create(path.Join(l.dir, segName(idx)))
	if err != nil {
		return l.stickWrite(err)
	}
	hdr := segHeader(l.frameBuf[:0], idx)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return l.stickWrite(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return l.stickSync(err)
	}
	l.seg = f
	l.segIndex = idx
	l.segOff = segHeaderLen
	l.segFrames = 0
	l.segPayload = 0
	return nil
}

// Append adds one event to the open batch, cutting a frame when the
// batch threshold is reached. Steady-state appends touch only the
// in-memory encoder; the filesystem is involved once per frame.
func (l *Log) Append(ev platform.Event) error {
	if l.firstErr != nil {
		return l.firstErr
	}
	if err := l.enc.Write(ev); err != nil {
		return l.stickWrite(err)
	}
	l.batched++
	if l.batched >= l.opt.BatchEvents {
		return l.cut()
	}
	return nil
}

// cut frames the pending batch and writes it to the live segment.
func (l *Log) cut() error {
	if l.firstErr != nil {
		return l.firstErr
	}
	if err := l.enc.Flush(); err != nil {
		return l.stickWrite(err)
	}
	l.batched = 0
	if l.pending.Len() == 0 {
		return nil
	}
	payload := l.pending.Bytes()
	l.frameBuf = appendFrame(l.frameBuf[:0], frameData, l.enc.Count(), payload)
	if _, err := l.seg.Write(l.frameBuf); err != nil {
		return l.stickWrite(err)
	}
	l.segOff += int64(len(l.frameBuf))
	l.segFrames++
	l.segPayload += uint64(len(payload))
	l.pending.Reset()
	l.frames.Inc()
	if l.opt.FsyncEveryBatch {
		if err := l.seg.Sync(); err != nil {
			return l.stickSync(err)
		}
	}
	return nil
}

// seal writes the footer frame, fsyncs, and closes the live segment.
func (l *Log) seal() error {
	footer := footerPayload(nil, l.segFrames, l.segPayload, l.enc.Count())
	l.frameBuf = appendFrame(l.frameBuf[:0], frameFooter, l.enc.Count(), footer)
	if _, err := l.seg.Write(l.frameBuf); err != nil {
		return l.stickWrite(err)
	}
	if err := l.seg.Sync(); err != nil {
		return l.stickSync(err)
	}
	if err := l.seg.Close(); err != nil {
		return l.stickWrite(err)
	}
	l.seg = nil
	return nil
}

// Checkpoint makes everything appended so far durable and records a
// consistent cut: flush and seal the live segment, open the next one,
// land the world snapshot produced by snap atomically, then swing the
// manifest to the new (checkpoint, segment, offset) triple. Ordering
// matters — segment data is durable before the checkpoint, the
// checkpoint before the manifest — so a crash at any point leaves the
// previous manifest's triple fully intact.
func (l *Log) Checkpoint(day int, snap func(io.Writer) error) error {
	if l.firstErr != nil {
		return l.firstErr
	}
	if err := l.cut(); err != nil {
		return err
	}
	if err := l.seal(); err != nil {
		return err
	}
	if err := l.startSegment(l.segIndex + 1); err != nil {
		return err
	}
	// The buffer keeps its capacity from one checkpoint to the next, so
	// a day's snapshot lands without regrowing it.
	l.ckptBuf.Reset()
	if err := snap(&l.ckptBuf); err != nil {
		return l.stickWrite(fmt.Errorf("durable: snapshot: %w", err))
	}
	name := fmt.Sprintf("ckpt-day-%03d.fsnap", day)
	if err, sync := atomicWrite(l.fs, l.dir, name, l.ckptBuf.Bytes()); err != nil {
		if sync {
			return l.stickSync(err)
		}
		return l.stickWrite(err)
	}
	prune := l.prevCkpt
	l.prevCkpt = l.ckptFile
	l.ckptDay, l.ckptFile = uint64(day), name
	if err := l.writeManifest(); err != nil {
		return err
	}
	l.ckpts.Inc()
	if prune != "" && prune != l.prevCkpt {
		// Best-effort hygiene: the manifest no longer references it.
		_ = l.fs.Remove(path.Join(l.dir, prune))
	}
	return nil
}

func (l *Log) writeManifest() error {
	m := Manifest{
		Version:        manifestVersion,
		Seed:           l.opt.Seed,
		Fingerprint:    l.opt.Fingerprint,
		CheckpointDay:  l.ckptDay,
		CheckpointFile: l.ckptFile,
		LiveSegment:    l.segIndex,
		LiveOffset:     uint64(l.segOff),
		Events:         l.encCount(),
	}
	if err, sync := atomicWrite(l.fs, l.dir, manifestName, m.encode()); err != nil {
		if sync {
			return l.stickSync(err)
		}
		return l.stickWrite(err)
	}
	return nil
}

func (l *Log) encCount() uint64 {
	if l.enc == nil {
		return 0
	}
	return l.enc.Count()
}

// Close flushes and seals the live segment. The manifest is left at
// the last checkpoint: a later Resume discards the sealed tail and
// re-derives it, while Reconstruct on a cleanly closed log reads the
// full stream including the tail.
func (l *Log) Close() error {
	if l.closed {
		return l.firstErr
	}
	l.closed = true
	if l.firstErr != nil {
		return l.firstErr
	}
	if err := l.cut(); err != nil {
		return err
	}
	return l.seal()
}

// Err returns the first write or fsync error the log swallowed, if
// any — wired into World.FinalizeTelemetry so a run that lost
// durability reports it at exit.
func (l *Log) Err() error { return l.firstErr }

// Events returns the number of events appended (framed or pending).
func (l *Log) Events() uint64 { return l.encCount() }

// Recovery reports what Resume found; nil on a freshly created log.
func (l *Log) Recovery() *Recovery { return l.rec }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) stickWrite(err error) error {
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.writeErrs.Inc()
	return err
}

func (l *Log) stickSync(err error) error {
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.fsyncErrs.Inc()
	return err
}

// Resume opens an existing durable log after a crash or clean stop.
// It validates the manifest, verifies every frame the manifest claims
// durable, truncates the live segment back to the checkpoint instant
// (discarding intact-but-uncovered tail frames and any torn tail),
// deletes later segments, rebuilds the encoder's string table from the
// retained stream, and returns a log ready to Append the re-derived
// suffix. The world itself is restored by the caller from
// Recovery.Checkpoint via core.RestoreWorld.
func Resume(fsys FS, dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if m.Seed != opt.Seed {
		return nil, &MismatchError{Field: "seed", Got: m.Seed, Want: opt.Seed}
	}
	if m.Fingerprint != opt.Fingerprint {
		return nil, &MismatchError{Field: "config fingerprint", Got: m.Fingerprint, Want: opt.Fingerprint}
	}

	l := newLog(fsys, dir, opt)
	rec := &Recovery{CheckpointDay: int(m.CheckpointDay), CheckpointFile: m.CheckpointFile, Events: m.Events}
	if m.CheckpointFile != "" {
		ckpt, err := fsys.ReadFile(path.Join(dir, m.CheckpointFile))
		if err != nil {
			return nil, &CorruptError{Path: path.Join(dir, m.CheckpointFile), Offset: -1,
				Err: fmt.Errorf("manifest names a checkpoint that cannot be read: %w", err)}
		}
		rec.Checkpoint = ckpt
	}

	// Verify the durable region and collect its stream bytes: all data
	// frames of segments 0..live-1 (each must be sealed and intact),
	// plus the live segment's frames up to the manifest offset.
	stream := bytes.NewBuffer(eventio.StreamMagic())
	for idx := uint64(0); idx < m.LiveSegment; idx++ {
		s, err := scanWholeSegment(fsys, dir, idx)
		if err != nil {
			return nil, err
		}
		if s.Torn != nil || !s.Sealed {
			return nil, &CorruptError{Path: path.Join(dir, segName(idx)), Offset: s.End,
				Err: fmt.Errorf("sealed segment damaged: %w", tornOr(s))}
		}
		for _, f := range s.Frames {
			if f.Kind == frameData {
				stream.Write(f.Payload)
			}
		}
	}

	liveName := segName(m.LiveSegment)
	livePath := path.Join(dir, liveName)
	liveData, err := fsys.ReadFile(livePath)
	if err != nil {
		return nil, &CorruptError{Path: livePath, Offset: -1, Err: err}
	}
	s, err := scanSegment(liveName, liveData)
	if err != nil {
		return nil, err
	}
	if s.Index != m.LiveSegment {
		return nil, &CorruptError{Path: livePath, Offset: int64(len(segMagic)),
			Err: fmt.Errorf("segment header index %d does not match file name", s.Index)}
	}
	// Split the live segment's frames at the manifest offset: frames
	// ending at or before it are durable; later ones are crash tail.
	var liveFrames, livePayload uint64
	cut := int64(segHeaderLen)
	for _, f := range s.Frames {
		end := f.Offset + frameHeaderLen + int64(len(f.Payload))
		if end > int64(m.LiveOffset) {
			rec.DiscardedFrames++
			if f.Kind == frameData {
				// Cumulative counts are monotonic, so the last tail
				// frame fixes the total number of dropped events.
				rec.DiscardedEvents = f.Events - m.Events
			}
			continue
		}
		if f.Kind == frameData {
			stream.Write(f.Payload)
			liveFrames++
			livePayload += uint64(len(f.Payload))
		}
		cut = end
	}
	if cut != int64(m.LiveOffset) {
		return nil, &CorruptError{Path: livePath, Offset: cut,
			Err: fmt.Errorf("no frame boundary at manifest offset %d", m.LiveOffset)}
	}
	rec.TornTail = s.Torn

	// Repair: drop everything past the checkpoint instant. The restored
	// world re-emits those events deterministically, and keeping them
	// would duplicate the suffix.
	if int64(len(liveData)) > cut {
		if err := fsys.Truncate(livePath, cut); err != nil {
			return nil, err
		}
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, idx := range segs {
		if idx > m.LiveSegment {
			if err := fsys.Remove(path.Join(dir, segName(idx))); err != nil {
				return nil, err
			}
		}
	}
	// Stray tmp files from an interrupted atomic write are dead weight.
	if names, err := fsys.ReadDir(dir); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") {
				_ = fsys.Remove(path.Join(dir, name))
			}
		}
	}

	// Decode the retained stream to rebuild the string table — and as a
	// final cross-check that the durable region really is one valid
	// FSEV1 prefix with exactly the manifest's event count.
	r, err := eventio.NewReader(bytes.NewReader(stream.Bytes()))
	if err != nil {
		return nil, &CorruptError{Path: dir, Offset: -1, Err: err}
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, &CorruptError{Path: dir, Offset: -1,
				Err: fmt.Errorf("durable region does not decode as FSEV1: %w", err)}
		}
	}
	if r.Events() != m.Events {
		return nil, &CorruptError{Path: dir, Offset: -1,
			Err: fmt.Errorf("durable region holds %d events, manifest says %d", r.Events(), m.Events)}
	}

	seg, err := fsys.OpenAppend(livePath)
	if err != nil {
		return nil, err
	}
	l.seg = seg
	l.segIndex = m.LiveSegment
	l.segOff = cut
	l.segFrames = liveFrames
	l.segPayload = livePayload
	l.ckptDay = m.CheckpointDay
	l.ckptFile = m.CheckpointFile
	l.initWriter(r.Strings(), m.Events)
	l.rec = rec
	return l, nil
}

func scanWholeSegment(fsys FS, dir string, idx uint64) (*segScan, error) {
	name := segName(idx)
	data, err := fsys.ReadFile(path.Join(dir, name))
	if err != nil {
		return nil, &CorruptError{Path: path.Join(dir, name), Offset: -1, Err: err}
	}
	return scanSegment(name, data)
}

func tornOr(s *segScan) error {
	if s.Torn != nil {
		return s.Torn
	}
	return fmt.Errorf("segment is not sealed")
}

// Reconstruct reassembles the FSEV1 stream from every valid frame in
// dir's segments, in order, writing it to w. It returns the cumulative
// event count. A torn tail or unsealed interior segment stops the
// reassembly after the valid prefix and returns the typed error, so
// callers get both the intact bytes and the diagnosis.
func Reconstruct(fsys FS, dir string, w io.Writer) (uint64, error) {
	if _, err := w.Write(eventio.StreamMagic()); err != nil {
		return 0, err
	}
	idxs, err := listSegments(fsys, dir)
	if err != nil {
		return 0, err
	}
	var events uint64
	var next uint64
	for i, idx := range idxs {
		if idx != next {
			return events, &CorruptError{Path: path.Join(dir, segName(next)), Offset: -1,
				Err: fmt.Errorf("segment index gap")}
		}
		next = idx + 1
		s, err := scanWholeSegment(fsys, dir, idx)
		if err != nil {
			return events, err
		}
		for _, f := range s.Frames {
			if f.Kind != frameData {
				continue
			}
			if _, err := w.Write(f.Payload); err != nil {
				return events, err
			}
			events = f.Events
		}
		if s.Torn != nil {
			return events, s.Torn
		}
		if !s.Sealed && i != len(idxs)-1 {
			return events, &CorruptError{Path: path.Join(dir, segName(idx)), Offset: s.End,
				Err: fmt.Errorf("non-final segment is not sealed")}
		}
	}
	return events, nil
}
