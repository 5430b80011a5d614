// Package durable makes the FSEV1 event stream crash-tolerant.
//
// A durable log is a directory holding three kinds of files:
//
//   - Segment files (seg-NNNNN.fseg): CRC32C-framed, length-prefixed
//     batches of raw eventio record bytes, one segment per checkpoint
//     period. A finished segment ends with a sealed footer frame.
//   - Checkpoint files (ckpt-day-NNN.fsnap): FSNAP2 world snapshots
//     written atomically (tmp + fsync + rename + dir fsync).
//   - MANIFEST: a tiny versioned, checksummed record of the latest
//     consistent (checkpoint, live segment, byte offset) triple, also
//     written atomically.
//
// The framing invariant: the FSEV1 magic followed by the concatenated
// payloads of every data frame, in segment order, is byte-identical to
// the stream an uninterrupted eventio.Writer would have produced. One
// string table spans the whole log; Resume primes the writer with the
// table decoded from the retained prefix so later string ids match.
//
// Recovery trusts only what the manifest claims is durable: everything
// before the manifest's (segment, offset) must verify, and everything
// after it — tail frames the crash may have torn — is discarded, because
// the restored world deterministically re-emits those events (the
// resume-equivalence invariant, docs/PERSISTENCE.md). Torn tails are
// reported via TornTailError, damage inside the durable region via
// CorruptError; neither path panics or silently drops data.
//
// All I/O goes through the FS interface so tests can run hermetically on
// MemFS and crash tests on CrashFS, a deterministic power-loss model.
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C polynomial table used for every checksum in
// the log (frames and manifest).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrExists reports that Create found an existing durable log in the
// target directory; the caller should Resume instead.
var ErrExists = errors.New("durable log already exists")

// ErrCrashed is the sticky error every CrashFS operation returns after
// the simulated power loss.
var ErrCrashed = errors.New("durable: simulated crash")

// ErrNoSpace is the injected out-of-space error a CrashFS kill point in
// ENOSPC mode returns from the fatal write.
var ErrNoSpace = errors.New("durable: injected ENOSPC")

// ErrFsyncInjected is the injected failure a CrashFS kill point in
// fsync-error mode returns from the fatal Sync.
var ErrFsyncInjected = errors.New("durable: injected fsync error")

// TornTailError reports a segment whose tail could not be validated:
// the file ends inside a frame, or the final frame's checksum does not
// match. Recovery treats a torn tail beyond the manifest offset as
// expected crash damage (the frames are discarded and re-derived);
// Reconstruct and VerifyDir surface it to the caller.
type TornTailError struct {
	Segment string // segment file name
	Frame   int    // index of the bad frame within the segment
	Offset  int64  // byte offset of the bad frame's start
	Want    uint32 // expected CRC32C (0 when the frame is incomplete)
	Got     uint32 // stored CRC32C (0 when the frame is incomplete)
	Err     error  // underlying cause (e.g. "frame extends past end")
}

func (e *TornTailError) Error() string {
	if e.Want != 0 || e.Got != 0 {
		return fmt.Sprintf("durable: torn tail in %s: frame %d at offset %d: checksum mismatch (want %08x, got %08x)",
			e.Segment, e.Frame, e.Offset, e.Want, e.Got)
	}
	return fmt.Sprintf("durable: torn tail in %s: frame %d at offset %d: %v",
		e.Segment, e.Frame, e.Offset, e.Err)
}

func (e *TornTailError) Unwrap() error { return e.Err }

// CorruptError reports damage inside the region the manifest claims is
// durable — a missing or unreadable segment, an invalid frame before
// the manifest offset, or a checkpoint file that fails to read. Unlike
// a torn tail this cannot be repaired by discarding frames; recovery
// refuses to guess and returns it to the caller.
type CorruptError struct {
	Path   string // file the damage was found in
	Offset int64  // byte offset of the damage (-1 when not byte-addressed)
	Err    error
}

func (e *CorruptError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("durable: corrupt %s at offset %d: %v", e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("durable: corrupt %s: %v", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// ManifestError reports a MANIFEST that is missing, truncated, fails
// its checksum, or carries an unsupported version.
type ManifestError struct {
	Path   string
	Reason string
	Err    error
}

func (e *ManifestError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("durable: manifest %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("durable: manifest %s: %s", e.Path, e.Reason)
}

func (e *ManifestError) Unwrap() error { return e.Err }

// MismatchError reports a manifest whose identity fields disagree with
// the caller's world — resuming would splice streams from different
// universes together.
type MismatchError struct {
	Field string
	Got   uint64 // value in the manifest
	Want  uint64 // value the caller expects
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("durable: %s mismatch: log has %#x, caller expects %#x", e.Field, e.Got, e.Want)
}

// mix64 is the SplitMix64 finalizer, the same pure hash internal/faults
// uses for injection verdicts: crash decisions are functions of
// (seed, op serial), never of wall time or goroutine interleaving.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
