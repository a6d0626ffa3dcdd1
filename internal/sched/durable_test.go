// Durable-checkpoint tests: encode/decode round trip, atomic file writes,
// typed rejection of corrupted/truncated/versioned files, the periodic
// write cadence with its obs counters, and the decoder fuzz target.
package sched_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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

// TestCheckpointDecodeRejectsCorruption: every class of file damage must
// yield a typed error — never a panic, never a silently wrong checkpoint.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	cp := durableCheckpointT(t)
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := sched.DecodeCheckpoint(bytes.NewReader(data))
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("empty", nil, sched.ErrCheckpointCorrupt)
	check("short header", valid[:10], sched.ErrCheckpointCorrupt)
	check("truncated payload", valid[:len(valid)-7], sched.ErrCheckpointCorrupt)

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	check("bad magic", badMagic, sched.ErrCheckpointCorrupt)

	badVer := append([]byte(nil), valid...)
	badVer[4] = 99
	check("future version", badVer, sched.ErrCheckpointVersion)

	// A bit flip anywhere in the payload must trip the CRC.
	for _, off := range []int{20, len(valid) / 2, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		check("bit flip", flipped, sched.ErrCheckpointCorrupt)
	}

	// Valid framing around a payload that is not a checkpoint.
	check("garbage payload", frameCorrupt([]byte(`{"cluster":null}`)), sched.ErrCheckpointCorrupt)
	check("json garbage", frameCorrupt([]byte(`{{{{`)), sched.ErrCheckpointCorrupt)
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
	v1 := buf.Bytes()
	v1[4] = 1
	if _, err := sched.DecodeCheckpoint(bytes.NewReader(v1)); !errors.Is(err, sched.ErrCheckpointVersion) {
		t.Errorf("version-1 file: err = %v, want ErrCheckpointVersion", err)
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
	// file on disk, and all three snapshots of this fault-free run differ
	// only in cursor/clock fields, so total ≈ 3 files — assert the exact
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

// deadHolderFrame re-frames a valid encoding with its first device marked
// failed while it still lists resident tensors — a state no run produces.
func deadHolderFrame(valid []byte) []byte {
	return frameCorrupt(bytes.Replace(valid[20:], []byte(`"Failed":false`), []byte(`"Failed":true`), 1))
}

// TestDecodeRejectsDeadHolder: a well-framed checkpoint whose failed device
// still holds tensors is refused as corrupt, not handed to a cluster that
// would then name a dead device as a holder.
func TestDecodeRejectsDeadHolder(t *testing.T) {
	w := numericWorkload(t, 7)
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), sched.Options{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
		t.Fatal(err)
	}
	frame := deadHolderFrame(buf.Bytes())
	if bytes.Equal(frame, buf.Bytes()) {
		t.Fatal("the frame was not changed: no device to mark failed")
	}
	if _, err := sched.DecodeCheckpoint(bytes.NewReader(frame)); !errors.Is(err, sched.ErrCheckpointCorrupt) {
		t.Fatalf("decode returned %v, want ErrCheckpointCorrupt", err)
	}
}

// FuzzCheckpointDecode: the decoder must never panic and must return a
// typed error on every non-round-trippable input.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed corpus: one real encoding, plus its truncations and a bit flip,
	// plus raw garbage.
	cp := func() *sched.Checkpoint {
		w, err := workload.Generate(workload.Config{
			Seed: 7, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 2,
			Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
		})
		if err != nil {
			f.Fatal(err)
		}
		c, err := gpusim.NewCluster(gpusim.MI100(4))
		if err != nil {
			f.Fatal(err)
		}
		res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, sched.Options{Checkpoint: true})
		if err != nil {
			f.Fatal(err)
		}
		return res.Checkpoint
	}()
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:19])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(deadHolderFrame(valid))
	f.Add([]byte("MCCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := sched.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, sched.ErrCheckpointCorrupt) && !errors.Is(err, sched.ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Anything the decoder accepts must re-encode cleanly.
		if _, err := sched.EncodeCheckpoint(&bytes.Buffer{}, got); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
	})
}
