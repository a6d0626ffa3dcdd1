package sched

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"micco/internal/fault"
	"micco/internal/obsfile"
)

// Durable checkpoint encoding.
//
// A sched.Checkpoint is an in-process handle; this file gives it an
// on-disk form so a run can survive the death of the process that took
// it. The layout is a fixed little-endian header followed by a JSON
// payload, which is the checkpoint's own content (checkpointData): its
// fields are declared once, and the encoder and decoder copy none of them.
//
//	offset  size  field
//	0       4     magic "MCCK"
//	4       4     format version (uint32, currently 3)
//	8       4     CRC32 (IEEE) of the payload
//	12      8     payload length in bytes (uint64)
//	20      -     payload: JSON of checkpointData
//
// The header is binary so truncation and corruption are detected before
// any JSON parsing happens; the payload is JSON so the format stays
// debuggable (dd skip=20 | jq) and versionable field-by-field. Decoding
// never trusts the input: a bad magic, length, CRC or payload yields
// ErrCheckpointCorrupt, another version yields ErrCheckpointVersion, and
// the cluster configuration and fault log are validated before they can
// reach a run. The placement log needs no check of its own: the resume
// replays it through the engine, which refuses a device outside the
// cluster or down, and a log that does not fit the stream. Writes are
// atomic, through obsfile.Write: temp file in the destination directory,
// fsync, rename, directory fsync.

// checkpointMagic opens every durable checkpoint file.
var checkpointMagic = [4]byte{'M', 'C', 'C', 'K'}

// CheckpointVersion is the current durable format version. Version 2 added
// the pair-stream digest; version 3 replaced the simulator's state image
// with the run's placement and fault log. Files of another version are
// refused, not resumed.
const CheckpointVersion = 3

// maxCheckpointPayload bounds the declared payload length; anything
// larger is corruption (the log of even a 4096-device run is far below
// this).
const maxCheckpointPayload = 1 << 30

// ErrCheckpointCorrupt marks a durable checkpoint that failed structural
// validation: bad magic, impossible length, CRC mismatch, truncation, or
// a payload that does not decode to a valid checkpoint.
var ErrCheckpointCorrupt = errors.New("sched: checkpoint corrupt")

// ErrCheckpointVersion marks a durable checkpoint in a format version this
// build does not read.
var ErrCheckpointVersion = errors.New("sched: checkpoint version unsupported")

// EncodeCheckpoint writes cp to w in the durable format, returning the
// number of bytes written.
func EncodeCheckpoint(w io.Writer, cp *Checkpoint) (int, error) {
	if cp == nil {
		return 0, fmt.Errorf("sched: %w: checkpoint", ErrNilArgument)
	}
	payload, err := json.Marshal(&cp.d)
	if err != nil {
		return 0, fmt.Errorf("sched: encode checkpoint: %w", err)
	}
	var hdr [20]byte
	copy(hdr[0:4], checkpointMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], CheckpointVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return len(hdr) + len(payload), nil
}

// DecodeCheckpoint reads one durable checkpoint from r. Corruption of any
// kind — truncation, bit flips, garbage — returns an error wrapping
// ErrCheckpointCorrupt; another format version returns one wrapping
// ErrCheckpointVersion. It never panics on malformed input.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	if !bytes.Equal(hdr[0:4], checkpointMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != CheckpointVersion {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrCheckpointVersion, v, CheckpointVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[8:12])
	length := binary.LittleEndian.Uint64(hdr[12:20])
	if length == 0 || length > maxCheckpointPayload {
		return nil, fmt.Errorf("%w: payload length %d out of range", ErrCheckpointCorrupt, length)
	}
	// ReadAll over a LimitReader grows with the data actually present, so
	// a corrupt length field cannot force a giant up-front allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCheckpointCorrupt, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCheckpointCorrupt, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCheckpointCorrupt, wantCRC, got)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(payload, &cp.d); err != nil {
		return nil, fmt.Errorf("%w: payload not valid JSON: %v", ErrCheckpointCorrupt, err)
	}
	if err := cp.d.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	return cp, nil
}

// validate refuses what the engine would not survive: an empty workload
// name, a negative stage, a cluster configuration NewCluster refuses, and a
// fault log an engine could not have written — an event a plan could not
// hold, out of order, past the end of the log, without a retry policy, or,
// at the very end, anything but the device restores ReviveDevices appends.
func (d *checkpointData) validate() error {
	if d.Workload == "" {
		return errors.New("empty workload name")
	}
	if d.NextStage < 0 {
		return fmt.Errorf("negative next stage %d", d.NextStage)
	}
	if err := d.Config.Validate(); err != nil {
		return err
	}
	if len(d.Faults) > 0 && d.Retry == nil {
		return errors.New("fault events without a fault plan's retry policy")
	}
	p := fault.Plan{Retry: d.Retry, Events: make([]fault.Event, len(d.Faults))}
	at := 0
	for i, r := range d.Faults {
		if r.At < at || r.At > len(d.Placements) {
			return fmt.Errorf("fault event %d before placement %d, out of order or past the log's %d", i, r.At, len(d.Placements))
		}
		if r.At == len(d.Placements) && r.Kind != fault.DeviceRestore {
			return fmt.Errorf("fault event %d at the end of the log is a %v", i, r.Kind)
		}
		p.Events[i], at = r.Event, r.At
	}
	return validatePlan(&p, d.Config)
}

// CheckpointPath returns the canonical durable-checkpoint path for a
// workload inside dir: the workload name with every byte outside
// [A-Za-z0-9._-] replaced by '_', plus the ".mcck" extension. The engine
// and the supervisor both derive the path this way, so they always agree.
func CheckpointPath(dir, workload string) string {
	name := []byte(workload)
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			name[i] = '_'
		}
	}
	if len(name) == 0 {
		name = []byte("run")
	}
	return filepath.Join(dir, string(name)+".mcck")
}

// SaveCheckpointFile atomically persists cp at path through obsfile.Write,
// the writer of every other artifact: the encoding is written to a temp
// file in the same directory, fsynced, renamed over path, and the
// directory is fsynced so the rename itself is durable. On error the
// destination is untouched (a reader never observes a partial file).
// Returns the encoded size in bytes. A new checkpoint file gets
// permission bits 0666 less the umask (a rewrite keeps the old file's),
// and a path that exists and is not a regular file is written in place.
func SaveCheckpointFile(path string, cp *Checkpoint) (int, error) {
	var n int
	err := obsfile.Write(path, "checkpoint", nil, func(w io.Writer) (err error) {
		n, err = EncodeCheckpoint(w, cp)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// LoadCheckpointFile reads and validates a durable checkpoint from path.
// Decode failures carry ErrCheckpointCorrupt / ErrCheckpointVersion; a
// missing file surfaces as the usual fs.ErrNotExist.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
