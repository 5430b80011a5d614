package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path"

	"footsteps/internal/framing"
)

// Manifest is the log's single source of truth for what is durable:
// the newest checkpoint and the exact (segment, byte offset, event
// count) the stream had reached at that checkpoint's instant. It is
// only ever replaced atomically (tmp + fsync + rename + dir fsync), so
// a reader sees either the old consistent triple or the new one, never
// a torn mix.
//
// Layout: "FMAN1\n" | body | CRC32C(body) (4 bytes LE), where body is
// uvarint version, seed, fingerprint, checkpoint day, a length-prefixed
// checkpoint file name (empty = genesis: no checkpoint yet, replay
// restarts the world from scratch), live segment index, live byte
// offset, and cumulative durable events.
type Manifest struct {
	Version        uint64
	Seed           uint64
	Fingerprint    uint64
	CheckpointDay  uint64
	CheckpointFile string // "" until the first checkpoint lands
	LiveSegment    uint64
	LiveOffset     uint64 // bytes of the live segment covered by the checkpoint
	Events         uint64 // events durable at the checkpoint instant
}

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	maxManifestName = 1 << 10
)

var manifestMagic = []byte("FMAN1\n")

func (m *Manifest) encode() []byte {
	buf := append([]byte(nil), manifestMagic...)
	body := len(buf)
	buf = binary.AppendUvarint(buf, m.Version)
	buf = binary.AppendUvarint(buf, m.Seed)
	buf = binary.AppendUvarint(buf, m.Fingerprint)
	buf = binary.AppendUvarint(buf, m.CheckpointDay)
	buf = binary.AppendUvarint(buf, uint64(len(m.CheckpointFile)))
	buf = append(buf, m.CheckpointFile...)
	buf = binary.AppendUvarint(buf, m.LiveSegment)
	buf = binary.AppendUvarint(buf, m.LiveOffset)
	buf = binary.AppendUvarint(buf, m.Events)
	crc := crc32.Checksum(buf[body:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// decodeManifest parses and checksum-verifies a manifest read from
// name. Every failure is a *ManifestError.
func decodeManifest(name string, data []byte) (*Manifest, error) {
	bad := func(reason string, err error) (*Manifest, error) {
		return nil, &ManifestError{Path: name, Reason: reason, Err: err}
	}
	if len(data) < len(manifestMagic)+4 {
		return bad(fmt.Sprintf("truncated (%d bytes)", len(data)), nil)
	}
	if !bytes.HasPrefix(data, manifestMagic) {
		return bad("bad magic", nil)
	}
	body := data[len(manifestMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return bad(fmt.Sprintf("checksum mismatch (want %08x, got %08x)", want, got), nil)
	}
	var m Manifest
	i := 0
	var err error
	for _, f := range []*uint64{&m.Version, &m.Seed, &m.Fingerprint, &m.CheckpointDay} {
		if *f, i, err = framing.Uvarint(body, i); err != nil {
			return bad("truncated body", nil)
		}
	}
	nameLen, i, err := framing.Uvarint(body, i)
	if err != nil || nameLen > maxManifestName || uint64(len(body)-i) < nameLen {
		return bad("bad checkpoint file name", nil)
	}
	m.CheckpointFile = string(body[i : i+int(nameLen)])
	i += int(nameLen)
	for _, f := range []*uint64{&m.LiveSegment, &m.LiveOffset, &m.Events} {
		if *f, i, err = framing.Uvarint(body, i); err != nil {
			return bad("truncated body", nil)
		}
	}
	if i != len(body) {
		return bad(fmt.Sprintf("%d trailing bytes", len(body)-i), nil)
	}
	if m.Version != manifestVersion {
		return bad(fmt.Sprintf("unsupported version %d (want %d)", m.Version, manifestVersion), nil)
	}
	return &m, nil
}

// readManifest loads and decodes dir's MANIFEST.
func readManifest(fsys FS, dir string) (*Manifest, error) {
	name := path.Join(dir, manifestName)
	data, err := fsys.ReadFile(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, &ManifestError{Path: name, Reason: "missing", Err: err}
		}
		return nil, &ManifestError{Path: name, Reason: "unreadable", Err: err}
	}
	return decodeManifest(name, data)
}

// atomicWrite lands data at dir/name with full crash safety: write a
// sibling tmp file, fsync it, rename over the target, fsync the
// directory. After a crash the target holds either the old bytes or
// the new — never a mix. syncErr distinguishes fsync failures for the
// caller's telemetry.
func atomicWrite(fsys FS, dir, name string, data []byte) (err error, syncErr bool) {
	tmp := path.Join(dir, name+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err, false
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err, false
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err, true
	}
	if err := f.Close(); err != nil {
		return err, false
	}
	if err := fsys.Rename(tmp, path.Join(dir, name)); err != nil {
		return err, false
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err, true
	}
	return nil, false
}
