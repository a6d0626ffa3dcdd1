// Durable-checkpoint tests: encode/decode round trip, atomic file writes,
// typed rejection of corrupted/truncated/versioned files, the periodic
// write cadence with its obs counters, and the decoder fuzz target.
package sched_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micco/internal/baseline"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// allLossPlan kills every one of n devices at stage st pair 1 — the
// unrecoverable scenario that makes the engine attach a checkpoint to the
// error.
func allLossPlan(n, st int) *fault.Plan {
	p := &fault.Plan{}
	for d := n - 1; d >= 0; d-- {
		p.Events = append(p.Events, fault.Event{Kind: fault.DeviceLoss, Device: d, Stage: st, Pair: 1})
	}
	return p
}

// durableCheckpoint produces a mid-run checkpoint with real content: a
// faulted, numeric, assignment-recording run killed by cluster loss.
func durableCheckpointT(t *testing.T) *sched.Checkpoint {
	t.Helper()
	w := numericWorkload(t, 7)
	c := newClusterT(t, 4)
	opts := sched.Options{
		Numeric: true, NumericSeed: 7, Checkpoint: true, RecordAssignments: true,
		FaultPlan: allLossPlan(4, 2),
	}
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, opts)
	if !errors.Is(err, sched.ErrClusterLost) {
		t.Fatalf("expected cluster loss, got %v", err)
	}
	if res == nil || res.Checkpoint == nil {
		t.Fatal("no checkpoint on failed run")
	}
	return res.Checkpoint
}

// TestCheckpointRoundTrip: encode → decode reproduces a checkpoint that
// resumes to the same fingerprint as the in-memory handle.
func TestCheckpointRoundTrip(t *testing.T) {
	cp := durableCheckpointT(t)
	var buf bytes.Buffer
	n, err := sched.EncodeCheckpoint(&buf, cp)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("EncodeCheckpoint reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := sched.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload() != cp.Workload() || got.Scheduler() != cp.Scheduler() || got.NextStage() != cp.NextStage() {
		t.Fatalf("round trip changed identity: %q/%q/%d vs %q/%q/%d",
			got.Workload(), got.Scheduler(), got.NextStage(), cp.Workload(), cp.Scheduler(), cp.NextStage())
	}

	// The decoded checkpoint must actually resume: same workload, fresh
	// cluster, fingerprints match the in-memory resume bit for bit.
	w := numericWorkload(t, 7)
	opts := sched.Options{Numeric: true, NumericSeed: 7, FaultPlan: allLossPlan(4, 2)}
	optsMem := opts
	optsMem.ResumeFrom = cp
	memRes, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), optsMem)
	if err != nil {
		t.Fatalf("in-memory resume: %v", err)
	}
	optsDisk := opts
	optsDisk.ResumeFrom = got
	diskRes, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), optsDisk)
	if err != nil {
		t.Fatalf("decoded resume: %v", err)
	}
	if memRes.NumericFingerprint != diskRes.NumericFingerprint {
		t.Fatalf("fingerprint drift across encode/decode: %x vs %x",
			memRes.NumericFingerprint, diskRes.NumericFingerprint)
	}
}

// TestCheckpointFileAtomicSave: SaveCheckpointFile leaves exactly the
// final file (no temp litter) and reports its size, and LoadCheckpointFile
// reads it back.
func TestCheckpointFileAtomicSave(t *testing.T) {
	cp := durableCheckpointT(t)
	dir := t.TempDir()
	path := sched.CheckpointPath(dir, cp.Workload())
	n, err := sched.SaveCheckpointFile(path, cp)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(dir, entries[0].Name()) != path {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(n) {
		t.Fatalf("SaveCheckpointFile reported %d bytes; the file holds %d", n, fi.Size())
	}
	got, err := sched.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextStage() != cp.NextStage() {
		t.Fatalf("loaded NextStage %d, want %d", got.NextStage(), cp.NextStage())
	}
}

// TestCheckpointDecodeRejectsCorruption is the checkpoint's misuse table,
// modelled on the root's TestMisuseReturnsTypedErrors: every class of file
// damage, the header's payload-length bounds, every branch of a decoded
// checkpoint's validation, a nil checkpoint to encode and CheckpointPath's
// character class. Each row names the error it must wrap (nil: the call
// succeeds) and a fragment of its message, so a row refused for another
// reason than its own fails — never a panic, never a silently wrong
// checkpoint.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	cp := durableCheckpointT(t)
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	decode := func(data []byte) func() error {
		return func() error {
			_, err := sched.DecodeCheckpoint(bytes.NewReader(data))
			return err
		}
	}
	damaged := func(edit func(b []byte)) func() error {
		b := append([]byte(nil), valid...)
		edit(b)
		return decode(b)
	}
	length := func(n uint64) func() error {
		return damaged(func(b []byte) { binary.LittleEndian.PutUint64(b[12:20], n) })
	}

	// Well-framed logs no engine writes, edited into the valid one (which
	// logs no fault event: every loss came after its boundary).
	// UseNumber keeps the 64-bit stream digest exact through the map.
	var payload map[string]any
	dec := json.NewDecoder(bytes.NewReader(valid[20:]))
	dec.UseNumber()
	if err := dec.Decode(&payload); err != nil {
		t.Fatal(err)
	}
	placements := len(payload["placements"].([]any))
	edited := func(edit func(p map[string]any)) func() error {
		p := maps.Clone(payload)
		edit(p)
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return decode(frameCorrupt(raw))
	}
	event := func(at int, kind string, dev int) map[string]any {
		return map[string]any{"at": at, "kind": kind, "device": dev}
	}
	faults := func(events ...any) func(p map[string]any) {
		return func(p map[string]any) { p["faults"] = events }
	}
	path := func(name, want string) func() error {
		return func() error {
			if got := sched.CheckpointPath("d", name); got != filepath.Join("d", want) {
				return fmt.Errorf("CheckpointPath(%q) = %q, want %q", name, got, filepath.Join("d", want))
			}
			return nil
		}
	}

	corrupt, version := sched.ErrCheckpointCorrupt, sched.ErrCheckpointVersion
	rows := []struct {
		name string
		call func() error
		want error  // nil: the call succeeds
		msg  string // a fragment of the error's text, if any
	}{
		{"empty", decode(nil), corrupt, "short header"},
		{"short header", decode(valid[:10]), corrupt, "short header"},
		{"truncated payload", decode(valid[:len(valid)-7]), corrupt, "payload truncated"},
		{"bad magic", damaged(func(b []byte) { b[0] = 'X' }), corrupt, "bad magic"},
		{"future version", damaged(func(b []byte) { b[4] = 99 }), version, "file version 99"},
		// A bit flip anywhere in the payload must trip the CRC.
		{"bit flip at the payload's start", damaged(func(b []byte) { b[20] ^= 0x40 }), corrupt, "CRC mismatch"},
		{"bit flip in the middle", damaged(func(b []byte) { b[len(b)/2] ^= 0x40 }), corrupt, "CRC mismatch"},
		{"bit flip at the end", damaged(func(b []byte) { b[len(b)-1] ^= 0x40 }), corrupt, "CRC mismatch"},
		// The declared length is refused outside (0, 1 GiB], before a read.
		{"a zero payload length", length(0), corrupt, "payload length 0 out of range"},
		{"a payload length past the bound", length(1<<30 + 1), corrupt, "out of range"},
		{"a payload length at the bound", length(1 << 30), corrupt, "payload truncated"},
		{"one byte short of the payload", length(uint64(len(valid)-20) + 1), corrupt, "payload truncated"},
		// Valid framing around a payload that is not a checkpoint.
		{"garbage payload", decode(frameCorrupt([]byte(`{"cluster":null}`))), corrupt, ""},
		{"json garbage", decode(frameCorrupt([]byte(`{{{{`))), corrupt, "not valid JSON"},
		{"the payload re-framed", edited(func(map[string]any) {}), nil, ""},
		// Each branch of validate.
		{"an empty workload name", edited(func(p map[string]any) { p["workload"] = "" }), corrupt, "empty workload name"},
		{"a negative next stage", edited(func(p map[string]any) { p["next_stage"] = -1 }), corrupt, "negative next stage -1"},
		{"next stage 0", edited(func(p map[string]any) { p["next_stage"] = 0 }), nil, ""},
		{"no devices", edited(func(p map[string]any) { p["config"] = map[string]any{} }), corrupt, ""},
		{"faults without a plan", edited(func(p map[string]any) { delete(p, "retry"); faults(event(0, "device-loss", 0))(p) }),
			corrupt, "without a fault plan's retry policy"},
		{"a bad retry policy", edited(func(p map[string]any) { p["retry"] = map[string]any{"max": 1} }), corrupt, ""},
		{"a device past the end", edited(faults(event(0, "device-loss", 4))), corrupt, ""},
		{"an unknown kind", edited(faults(event(0, "meteor", 0))), corrupt, ""},
		{"a first fault at placement 0", edited(faults(event(0, "device-loss", 0))), nil, ""},
		{"a fault before the log", edited(faults(event(-1, "device-loss", 0))), corrupt, "out of order"},
		{"two faults at one placement", edited(faults(event(3, "device-loss", 0), event(3, "device-loss", 1))), nil, ""},
		{"faults out of order", edited(faults(event(5, "device-loss", 0), event(3, "device-loss", 1))), corrupt, "out of order"},
		{"a fault past the log", edited(faults(event(1<<20, "device-restore", 0))), corrupt, "past the log"},
		{"a loss at the log's end", edited(faults(event(placements, "device-loss", 0))), corrupt, "at the end of the log is a"},
		{"a restore at the log's end", edited(faults(event(0, "device-loss", 1), event(placements, "device-restore", 1))), nil, ""},
		{"a shrink to no byte", edited(func(p map[string]any) {
			shrink := event(0, "mem-shrink", 0)
			shrink["factor"] = 1e-12
			faults(shrink)(p)
		}), corrupt, ""},
		{"encode a nil checkpoint", func() error {
			_, err := sched.EncodeCheckpoint(&bytes.Buffer{}, nil)
			return err
		}, sched.ErrNilArgument, "checkpoint"},
		// CheckpointPath keeps [A-Za-z0-9._-] and replaces every other byte.
		{"the character class's edges", path("azAZ09._-", "azAZ09._-.mcck"), nil, ""},
		{"the bytes just outside them", path("`{@[/:", "______.mcck"), nil, ""},
		{"an empty name", path("", "run.mcck"), nil, ""},
	}
	for _, r := range rows {
		err := r.call()
		if !errors.Is(err, r.want) || r.msg != "" && (err == nil || !strings.Contains(err.Error(), r.msg)) {
			t.Errorf("%s: err = %v, want %v with %q", r.name, err, r.want, r.msg)
		}
	}
}

// frameCorrupt wraps arbitrary payload bytes in a correct header (magic,
// version, CRC, length) so decode exercises the payload validation layer.
func frameCorrupt(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("MCCK")
	buf.Write([]byte{sched.CheckpointVersion, 0, 0, 0})
	crc := crc32ieee(payload)
	buf.Write([]byte{byte(crc), byte(crc >> 8), byte(crc >> 16), byte(crc >> 24)})
	n := uint64(len(payload))
	for i := 0; i < 8; i++ {
		buf.WriteByte(byte(n >> (8 * i)))
	}
	buf.Write(payload)
	return buf.Bytes()
}

func crc32ieee(p []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, b := range p {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestCheckpointResumeRejectsMismatch: a decoded checkpoint from workload
// or shape X must not seed a run of Y, the numeric seed must match the
// resuming options, and a run refused for any of these — or for an
// invalid fault plan — must not have created its CheckpointDir.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	cp := durableCheckpointT(t)
	// Generated names carry the shape, not the seed: rename the other
	// workload so it is the validation that refuses it, not a tensor the
	// restored cluster turns out to lack three stages in.
	otherW := *numericWorkload(t, 99)
	otherW.Name += " seed 99"
	dir := filepath.Join(t.TempDir(), "ckpt")
	opts := sched.Options{Numeric: true, NumericSeed: 7, ResumeFrom: cp, CheckpointDir: dir}
	rejected := func(what string, w *workload.Workload, devices int, o sched.Options) {
		t.Helper()
		if _, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, devices), o); err == nil {
			t.Fatalf("run accepted with %s", what)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run rejected for %s left its checkpoint dir behind (stat: %v)", what, err)
		}
	}
	rejected("a checkpoint for a different workload", &otherW, 4, opts)
	w := numericWorkload(t, 7)
	rejected("a checkpoint for a different cluster shape", w, 8, opts)
	badSeed := opts
	badSeed.NumericSeed = 8
	rejected("a different numeric seed", w, 4, badSeed)
	badPlan := opts
	badPlan.ResumeFrom = nil
	badPlan.FaultPlan = &fault.Plan{Events: []fault.Event{{Kind: fault.DeviceLoss, Device: 99}}}
	rejected("a fault plan naming a device the cluster lacks", w, 4, badPlan)
}

// TestCheckpointRefusesSameNameOtherStream: synthetic workloads that differ
// only in their seed share a name, and so a durable checkpoint's path. A
// checkpoint of one, in memory or read back from its file, must not resume
// the other: the stream digest it carries refuses it. It still resumes its
// own stream, and a version-1 file, which has no digest, is refused as a
// version this build does not read.
func TestCheckpointRefusesSameNameOtherStream(t *testing.T) {
	gen := func(seed int64) *workload.Workload {
		w, err := workload.Generate(workload.Config{
			Seed: seed, Stages: 4, VectorSize: 6, TensorDim: 16, Batch: 1,
			Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w1, w2 := gen(1), gen(2)
	if w1.Name != w2.Name {
		t.Fatalf("names differ (%q, %q): the case under test is two streams under one name", w1.Name, w2.Name)
	}
	dir := t.TempDir()
	res, err := sched.Run(context.Background(), w1, baseline.NewRoundRobin(), newClusterT(t, 4), sched.Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := sched.LoadCheckpointFile(sched.CheckpointPath(dir, w2.Name))
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]*sched.Checkpoint{"in-memory": res.Checkpoint, "durable": disk} {
		_, err := sched.Run(context.Background(), w2, baseline.NewRoundRobin(), newClusterT(t, 4), sched.Options{ResumeFrom: cp})
		if !errors.Is(err, sched.ErrCheckpointMismatch) {
			t.Errorf("%s checkpoint of seed 1 resuming seed 2: err = %v, want ErrCheckpointMismatch", name, err)
		}
		if _, err := sched.Run(context.Background(), w1, baseline.NewRoundRobin(), newClusterT(t, 4), sched.Options{ResumeFrom: cp}); err != nil {
			t.Errorf("%s checkpoint refused on its own stream: %v", name, err)
		}
	}
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	for _, v := range []byte{1, 2} {
		old[4] = v
		if _, err := sched.DecodeCheckpoint(bytes.NewReader(old)); !errors.Is(err, sched.ErrCheckpointVersion) {
			t.Errorf("version-%d file: err = %v, want ErrCheckpointVersion", v, err)
		}
	}
}

// TestCheckpointPeriodicWrites: CheckpointDir persists at the configured
// cadence, the obs counters reconcile exactly with the files written, and
// the final boundary is always durable.
func TestCheckpointPeriodicWrites(t *testing.T) {
	w := numericWorkload(t, 5) // 4 stages
	dir := t.TempDir()
	reg := obs.New()
	opts := sched.Options{
		Numeric: true, NumericSeed: 5,
		CheckpointDir: dir, CheckpointEvery: 3, Obs: reg,
	}
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries 0..4; every=3 writes at 0, 3, and the final 4.
	writes := reg.Counter("micco_checkpoint_writes_total").Value()
	if writes != 3 {
		t.Fatalf("writes counter = %v, want 3 (boundaries 0, 3, final)", writes)
	}
	path := sched.CheckpointPath(dir, w.Name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes counter counts cumulative encoded bytes; the last write is the
	// file on disk, and the three logs of this run are prefixes of one
	// another, so the total is less than 3 files — assert the exact
	// invariant instead: counter ≥ final file size, and a full-run
	// re-encode matches the file exactly.
	bytesWritten := reg.Counter("micco_checkpoint_bytes_written_total").Value()
	if bytesWritten < float64(fi.Size()) {
		t.Fatalf("bytes counter %v < final file size %d", bytesWritten, fi.Size())
	}
	var buf bytes.Buffer
	n, err := sched.EncodeCheckpoint(&buf, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != fi.Size() {
		t.Fatalf("final file is %d bytes, re-encoding the final checkpoint gives %d", fi.Size(), n)
	}
	// The durable file resumes instantly to the same fingerprint (a
	// completed checkpoint resumes past the last stage).
	loaded, err := sched.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NextStage() != 4 {
		t.Fatalf("final checkpoint NextStage = %d, want 4", loaded.NextStage())
	}
}

// TestCheckpointFormatV3File pins format version 3 with a file an earlier
// build wrote: testdata/checkpoint_v3.mcck is the durable checkpoint of a
// faulted, numeric run on four MI100s stopped as stage 2 began, written
// before the checkpoint's fields were declared once. It must re-encode byte
// for byte and resume to the uninterrupted run's Result.
func TestCheckpointFormatV3File(t *testing.T) {
	if sched.CheckpointVersion != 3 {
		t.Fatalf("CheckpointVersion = %d: the pinned file is format 3", sched.CheckpointVersion)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.mcck"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sched.DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("re-encoding changed the file:\n got %s\nwant %s", buf.Bytes()[20:], raw[20:])
	}
	if cp.NextStage() != 2 {
		t.Fatalf("the file resumes at stage %d, want 2", cp.NextStage())
	}
	// The options of the run the file was taken from.
	w := numericWorkload(t, 23)
	opts := sched.Options{
		DiscardDeadInputs: true, Numeric: true, NumericSeed: 23, RecordAssignments: true,
		FaultPlan: &fault.Plan{Events: []fault.Event{
			{Kind: fault.TransientTransfer, Failures: 2, Stage: 0, Pair: 1},
			{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 2},
			{Kind: fault.LinkDegrade, Factor: 0.5, Stage: 1, Pair: 3},
			{Kind: fault.MemShrink, Device: 2, Factor: 0.5, Stage: 2, Pair: 0},
			{Kind: fault.DeviceRestore, Device: 1, Stage: 3, Pair: -1},
		}},
	}
	ref, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ResumeFrom = cp
	got, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "resume from the format-3 file", got, ref)
}

// FuzzCheckpointDecode: the decoder never panics and refuses what it
// cannot read with a typed error. Every checkpoint it accepts resumes a run
// on a cluster of the file's own configuration, under the options the file
// names: the placement and fault log is the one input from outside the
// program that reaches the engine, so the run must end in a Result or a
// typed error, never a panic, and leave a cluster that passes Audit. Each
// input is tried as a file and as the payload of a well-framed one, so
// mutations reach the payload past the CRC.
func FuzzCheckpointDecode(f *testing.F) {
	w, err := workload.Generate(workload.Config{
		Seed: 7, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.5, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		f.Fatal(err)
	}
	cfg := gpusim.MI100(4)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.TransientTransfer, Failures: 2, Stage: 0, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 0},
		{Kind: fault.LinkDegrade, Factor: 0.5, Stage: 1, Pair: 2},
		{Kind: fault.MemShrink, Device: 2, Factor: 0.5, Stage: 2, Pair: 0},
	}}
	opts := sched.Options{DiscardDeadInputs: true, Checkpoint: true, FaultPlan: plan}
	encode := func(cp *sched.Checkpoint) []byte {
		var buf bytes.Buffer
		if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Seed corpus: the run's checkpoint at every boundary, one with its
	// lost device revived, damaged copies, and the payloads on their own.
	var files [][]byte
	for stop := 0; stop <= len(w.Stages); stop++ {
		ctx, cancel := context.WithCancel(context.Background())
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			f.Fatal(err)
		}
		res, err := sched.Run(ctx, w, &stopAtStage{Scheduler: baseline.NewRoundRobin(), stop: stop, cancel: cancel}, c, opts)
		cancel()
		if res == nil || res.Checkpoint == nil {
			f.Fatalf("stop at stage %d: %v", stop, err)
		}
		files = append(files, encode(res.Checkpoint))
		if stop == len(w.Stages) && res.Checkpoint.ReviveDevices() == 1 {
			files = append(files, encode(res.Checkpoint))
		}
	}
	for _, file := range files {
		f.Add(file)
	}
	last := files[len(files)-1]
	f.Add(last[:len(last)/2])
	flipped := append([]byte(nil), last...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	for _, file := range files {
		f.Add(file[20:])
	}
	f.Add([]byte("MCCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, frameCorrupt(data)} {
			cp, err := sched.DecodeCheckpoint(bytes.NewReader(file))
			if err != nil {
				if !errors.Is(err, sched.ErrCheckpointCorrupt) && !errors.Is(err, sched.ErrCheckpointVersion) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			if _, err := sched.EncodeCheckpoint(&bytes.Buffer{}, cp); err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			// The file's own cluster and options, so that the log, not a
			// mismatch, decides how the resume ends.
			var named struct {
				Config      gpusim.Config `json:"config"`
				DiscardDead bool          `json:"discard_dead_inputs"`
				Retry       *fault.Retry  `json:"retry"`
			}
			if err := json.Unmarshal(file[20:], &named); err != nil {
				t.Fatal(err)
			}
			c, err := gpusim.NewCluster(named.Config)
			if err != nil {
				t.Fatalf("accepted checkpoint's config: %v", err)
			}
			o := sched.Options{DiscardDeadInputs: named.DiscardDead, ResumeFrom: cp}
			if named.Retry != nil {
				o.FaultPlan = &fault.Plan{Retry: named.Retry}
			}
			if _, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, o); err != nil && !typedRunError(err) {
				t.Fatalf("resume failed with an untyped error: %v", err)
			}
			if err := c.Audit(); err != nil {
				t.Fatalf("resume left the cluster inconsistent: %v", err)
			}
		}
	})
}

// typedRunError reports whether err carries one of the sentinels a run
// fails with.
func typedRunError(err error) bool {
	for _, sentinel := range []error{
		sched.ErrCheckpointMismatch, sched.ErrInvalidDevice, sched.ErrOutOfMemory, sched.ErrClusterLost,
		gpusim.ErrDeviceLost, gpusim.ErrTensorUnavailable, gpusim.ErrTransientTransfer,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
