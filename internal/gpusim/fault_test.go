package gpusim

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"micco/internal/obs"
)

func TestFailDeviceDropsResidencyAndRejectsWork(t *testing.T) {
	c, err := NewCluster(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := desc(1, 16, 1), desc(2, 16, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, desc(3, 16, 1)); err != nil {
		t.Fatal(err)
	}
	if c.HoldersMask(3).Empty() {
		t.Fatal("output not resident before failure")
	}
	frozen := c.Device(0).Clock()
	if err := c.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	// Residency drops through the index: no tensor may list device 0.
	for _, id := range []uint64{1, 2, 3} {
		if c.HoldersMask(id).Has(0) {
			t.Errorf("tensor %d still indexed on failed device", id)
		}
	}
	if n := c.Device(0).ResidentCount(); n != 0 {
		t.Errorf("failed device holds %d tensors, want 0", n)
	}
	if used := c.Device(0).MemUsed(); used != 0 {
		t.Errorf("failed device memUsed = %d, want 0", used)
	}
	if got := c.Device(0).Clock(); got != frozen {
		t.Errorf("failed device clock moved: %v -> %v", frozen, got)
	}
	if !c.DeviceFailed(0) || c.DeviceFailed(1) {
		t.Error("DeviceFailed flags wrong")
	}
	if !c.AliveMask().Equal(DevSetOf(1)) || !c.FailedMask().Equal(DevSetOf(0)) {
		t.Errorf("masks wrong: alive %v failed %v", c.AliveMask().AppendTo(nil), c.FailedMask().AppendTo(nil))
	}
	// Operations on a failed device return ErrDeviceLost with context.
	if _, err := c.ExecContraction(0, a, b, desc(4, 16, 1)); !errors.Is(err, ErrDeviceLost) {
		t.Errorf("ExecContraction on failed device: %v, want ErrDeviceLost", err)
	}
	if err := c.EnsureResident(0, a); !errors.Is(err, ErrDeviceLost) {
		t.Errorf("EnsureResident on failed device: %v, want ErrDeviceLost", err)
	}
	// Idempotent.
	if err := c.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	// The survivor keeps working.
	if _, err := c.ExecContraction(1, a, b, desc(5, 16, 1)); err != nil {
		t.Fatalf("survivor cannot run: %v", err)
	}
}

func TestFailDeviceLosesDirtyDataNotWrittenBack(t *testing.T) {
	c, _ := NewCluster(testConfig(1))
	a, b := desc(1, 16, 1), desc(2, 16, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	out := desc(3, 16, 1)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatal(err)
	}
	if err := c.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	// The dirty output was never written back: it is now gone everywhere.
	if c.HostHolds(out.ID) || !c.HoldersMask(out.ID).Empty() {
		t.Error("dirty output survived device loss")
	}
	if err := c.RestoreDevice(0); err != nil {
		t.Fatal(err)
	}
	_, err := c.ensureResident(c.Device(0), &out, c.slot(out.ID), false)
	if !errors.Is(err, ErrTensorUnavailable) {
		t.Errorf("fetching lost tensor: %v, want ErrTensorUnavailable", err)
	}
}

func TestRestoreDeviceRejoinsAtMakespan(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	a, b := desc(1, 16, 1), desc(2, 16, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if err := c.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContraction(0, a, b, desc(3, 16, 1)); err != nil {
		t.Fatal(err)
	}
	m := c.Makespan()
	if m == 0 {
		t.Fatal("no work simulated")
	}
	if err := c.RestoreDevice(1); err != nil {
		t.Fatal(err)
	}
	d := c.Device(1)
	if d.Failed() || d.Clock() != m || d.CopyClock() != m {
		t.Errorf("restored device at clock %v/%v, want makespan %v", d.Clock(), d.CopyClock(), m)
	}
	if d.ResidentCount() != 0 {
		t.Error("restored device pool not empty")
	}
	// Restoring a live device is a no-op.
	if err := c.RestoreDevice(1); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeLinkScalesAllTransferPaths(t *testing.T) {
	cfg := testConfig(2)
	cfg.PeerFetch = true
	c, _ := NewCluster(cfg)
	a := desc(1, 64, 1)
	c.RegisterHostTensor(a)
	if err := c.DegradeLink(0.5); err != nil {
		t.Fatal(err)
	}
	if c.LinkFactor() != 0.5 {
		t.Fatalf("LinkFactor = %v, want 0.5", c.LinkFactor())
	}
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatal(err)
	}
	wantH2D := float64(a.Bytes()) / (cfg.H2DBandwidth * 0.5)
	if got := c.Device(0).Stats().TransferTime; !near(got, wantH2D) {
		t.Errorf("degraded H2D transfer time = %v, want %v", got, wantH2D)
	}
	// P2P from device 0 to device 1 is also degraded.
	if err := c.EnsureResident(1, a); err != nil {
		t.Fatal(err)
	}
	wantP2P := float64(a.Bytes()) / (cfg.P2PBandwidth * 0.5)
	if got := c.Device(1).Stats().TransferTime; !near(got, wantP2P) {
		t.Errorf("degraded P2P transfer time = %v, want %v", got, wantP2P)
	}
	// Restoring factor 1 restores full bandwidth.
	if err := c.DegradeLink(1); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	c.RegisterHostTensor(a)
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Device(0).Stats().TransferTime, float64(a.Bytes())/cfg.H2DBandwidth; !near(got, want) {
		t.Errorf("restored H2D transfer time = %v, want %v", got, want)
	}
	if err := c.DegradeLink(0); err == nil {
		t.Error("DegradeLink(0) accepted")
	}
}

func TestTransientFailuresConsumeAndSurface(t *testing.T) {
	c, _ := NewCluster(testConfig(1))
	a := desc(7, 16, 1)
	c.RegisterHostTensor(a)
	c.InjectTransientFailures(2)
	if got := c.TransientFailuresLeft(); got != 2 {
		t.Fatalf("TransientFailuresLeft = %d, want 2", got)
	}
	before := c.Device(0).Clock()
	for i := 0; i < 2; i++ {
		err := c.EnsureResident(0, a)
		if !errors.Is(err, ErrTransientTransfer) {
			t.Fatalf("attempt %d: %v, want ErrTransientTransfer", i, err)
		}
		// The failed attempt must carry actionable context.
		if !strings.Contains(err.Error(), "device 0") || !strings.Contains(err.Error(), "tensor 7") {
			t.Errorf("attempt %d error lacks device/tensor context: %v", i, err)
		}
	}
	if got := c.Device(0).Clock(); got != before {
		t.Errorf("transient failure charged time: %v -> %v", before, got)
	}
	// Third attempt succeeds; reuse hits never consume injections.
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatal(err)
	}
	c.InjectTransientFailures(1)
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatalf("reuse hit consumed a transient failure: %v", err)
	}
	if got := c.TransientFailuresLeft(); got != 1 {
		t.Errorf("TransientFailuresLeft after reuse hit = %d, want 1", got)
	}
}

// TestShrinkEvictsLRUWithWriteBack is the satellite coverage for eviction
// under memory-capacity shrink: the LRU blocks go first, dirty ones are
// written back in LRU order, and MemPeak keeps the pre-shrink high water.
func TestShrinkEvictsLRUWithWriteBack(t *testing.T) {
	cfg := testConfig(1)
	c, _ := NewCluster(cfg)
	c.StartTrace()
	a, b := desc(1, 16, 1), desc(2, 16, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	// Two contractions reusing the inputs. Each reuse touches a and b to
	// MRU, so the LRU order afterwards is out1 (dirty), a, b, out2 (dirty).
	out1, out2 := desc(3, 16, 1), desc(4, 16, 1)
	if _, err := c.ExecContraction(0, a, b, out1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContraction(0, a, b, out2); err != nil {
		t.Fatal(err)
	}
	d := c.Device(0)
	peak := d.MemPeak()
	used := d.MemUsed()
	if used != a.Bytes()+b.Bytes()+out1.Bytes()+out2.Bytes() {
		t.Fatalf("unexpected pool occupancy %d", used)
	}
	// Shrink so only two tensors fit: out1 (dirty — written back) then a
	// (clean — dropped) go, in LRU order.
	newCap := b.Bytes() + out2.Bytes()
	if err := c.SetMemoryCapacity(0, newCap); err != nil {
		t.Fatal(err)
	}
	if d.Capacity() != newCap {
		t.Errorf("Capacity = %d, want %d", d.Capacity(), newCap)
	}
	if d.MemUsed() > newCap {
		t.Errorf("pool still over capacity: %d > %d", d.MemUsed(), newCap)
	}
	var evicted []uint64
	var writebacks []uint64
	for _, e := range c.StopTrace() {
		switch e.Kind {
		case obs.EventEvict:
			evicted = append(evicted, e.Tensor)
		case obs.EventD2H:
			writebacks = append(writebacks, e.Tensor)
		}
	}
	if want := []uint64{out1.ID, a.ID}; !reflect.DeepEqual(evicted, want) {
		t.Errorf("eviction order = %v, want %v", evicted, want)
	}
	if want := []uint64{out1.ID}; !reflect.DeepEqual(writebacks, want) {
		t.Errorf("dirty write-back order = %v, want %v", writebacks, want)
	}
	if !c.HostHolds(out1.ID) {
		t.Error("written-back output not host resident")
	}
	if got := d.Stats().D2HBytes; got != out1.Bytes() {
		t.Errorf("D2HBytes = %d, want %d", got, out1.Bytes())
	}
	// MemPeak keeps the pre-shrink high-water mark.
	if d.MemPeak() != peak {
		t.Errorf("MemPeak changed across shrink: %d -> %d", peak, d.MemPeak())
	}
	// Shrink further: b (clean) is now the least recently used survivor.
	c.StartTrace()
	if err := c.SetMemoryCapacity(0, out2.Bytes()); err != nil {
		t.Fatal(err)
	}
	evicted, writebacks = nil, nil
	for _, e := range c.StopTrace() {
		switch e.Kind {
		case obs.EventEvict:
			evicted = append(evicted, e.Tensor)
		case obs.EventD2H:
			writebacks = append(writebacks, e.Tensor)
		}
	}
	if want := []uint64{b.ID}; !reflect.DeepEqual(evicted, want) {
		t.Errorf("second eviction order = %v, want %v", evicted, want)
	}
	if len(writebacks) != 0 {
		t.Errorf("clean eviction wrote back: %v", writebacks)
	}
	if d.MemPeak() != peak {
		t.Errorf("MemPeak changed across second shrink: %d -> %d", peak, d.MemPeak())
	}
	// Invalid capacities are rejected; a request exceeding the shrunken
	// pool reports the effective capacity.
	if err := c.SetMemoryCapacity(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	big := desc(9, 64, 4)
	c.RegisterHostTensor(big)
	if err := c.EnsureResident(0, big); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized alloc on shrunken pool: %v, want ErrOutOfMemory", err)
	}
}

// TestSentinelErrorsCarryContext is the satellite check that wrapped
// simulator errors stay errors.Is-compatible and carry device/tensor/byte
// context.
func TestSentinelErrorsCarryContext(t *testing.T) {
	cfg := testConfig(1)
	c, _ := NewCluster(cfg)
	// ErrOutOfMemory via a tensor exceeding capacity: names device,
	// requested bytes, capacity and free bytes, plus the tensor being
	// allocated.
	big := desc(11, 64, 17) // 64*64*16*17 B > the 1 MiB test pool
	c.RegisterHostTensor(big)
	err := c.EnsureResident(0, big)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized: %v, want ErrOutOfMemory", err)
	}
	for _, want := range []string{"device 0", "tensor 11", "capacity", "free"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("OOM error lacks %q: %v", want, err)
		}
	}
	// ErrTensorUnavailable names the tensor, its size, and the requester.
	err = c.EnsureResident(0, desc(12, 16, 1))
	if !errors.Is(err, ErrTensorUnavailable) {
		t.Fatalf("unknown tensor: %v, want ErrTensorUnavailable", err)
	}
	for _, want := range []string{"tensor 12", "device 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unavailable error lacks %q: %v", want, err)
		}
	}
	// ErrDeviceLost names the device and the tensor being staged.
	if err := c.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	err = c.EnsureResident(0, desc(13, 16, 1))
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("failed device: %v, want ErrDeviceLost", err)
	}
	for _, want := range []string{"device 0", "tensor 13"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("device-lost error lacks %q: %v", want, err)
		}
	}
	// ErrInvalidDevice still works through the same wrap discipline.
	if err := c.EnsureResident(5, desc(14, 16, 1)); !errors.Is(err, ErrInvalidDevice) {
		t.Errorf("out-of-range device: %v, want ErrInvalidDevice", err)
	}
}

func TestDiscardDeviceCopiesKeepsHostCopy(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	a := desc(1, 16, 1)
	c.RegisterHostTensor(a)
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(1, a); err != nil {
		t.Fatal(err)
	}
	c.DiscardDeviceCopies(a.ID)
	if !c.HoldersMask(a.ID).Empty() {
		t.Error("device copies survive DiscardDeviceCopies")
	}
	if !c.HostHolds(a.ID) {
		t.Error("host copy did not survive DiscardDeviceCopies")
	}
	// Contrast: Discard forgets the host copy too.
	c.Discard(a.ID)
	if c.HostHolds(a.ID) {
		t.Error("host copy survives Discard")
	}
}

// TestFaultEventsTracedAndSummarized injects every fault kind into a traced
// cluster, watched by a registry with a flight recorder, late in a run long
// enough to overrun the recorder's ring: the recorder holds the trace's last
// events as the cluster emitted them, fault codes and arguments included,
// its faults note what was injected, in order, and the Chrome trace renders
// them as instants.
func TestFaultEventsTracedAndSummarized(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	reg, fr := obs.New(), obs.NewFlightRecorder()
	reg.SetFlightRecorder(fr)
	c.SetObserver(reg)
	c.StartTrace()
	for i := range uint64(3000) {
		if i == 2000 {
			for _, err := range []error{c.DegradeLink(0.25), c.FailDevice(1), c.RestoreDevice(1), c.SetMemoryCapacity(0, 1<<19)} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		a, b := desc(3*i+1, 64, 1), desc(3*i+2, 64, 1)
		c.RegisterHostTensor(a)
		c.RegisterHostTensor(b)
		if _, err := c.ExecContraction(int(i&1), a, b, desc(3*i+3, 64, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.InjectTransientFailures(3)
	events := c.StopTrace()
	got, want := fr.Snapshot().Events, events[max(len(events)-obs.DefFlightEvents, 0):]
	if len(events) <= obs.DefFlightEvents || !slices.Equal(got, want) {
		t.Fatalf("the recorder's %d events are not the last %d of %d traced", len(got), len(want), len(events))
	}
	var notes []string
	for _, e := range got {
		if e.Kind == obs.EventFault {
			notes = append(notes, e.Note())
		}
	}
	wantNotes := []string{"link-degrade x0.25", "device-loss", "device-restore", "mem-capacity 524288", "transient-transfer x3"}
	if !reflect.DeepEqual(notes, wantNotes) {
		t.Errorf("fault notes = %v, want %v", notes, wantNotes)
	}
	// Chrome trace renders faults as instants and stays valid JSON.
	var sb strings.Builder
	if err := WriteChromeTraceMerged(&sb, got, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"fault device-loss"`) {
		t.Errorf("chrome trace lacks fault instant:\n%s", sb.String())
	}
}

func TestClusterCheckpointRestoreBitIdentical(t *testing.T) {
	cfg := testConfig(2)
	cfg.AsyncCopy = true
	run := func(c *Cluster, from int) {
		a, b := desc(1, 16, 2), desc(2, 16, 2)
		if from == 0 {
			c.RegisterHostTensor(a)
			c.RegisterHostTensor(b)
		}
		for i := from; i < 6; i++ {
			dev := i % 2
			if _, err := c.ExecContraction(dev, a, b, desc(uint64(10+i), 16, 2)); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := c.DegradeLink(0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Barrier()
	}
	// Uninterrupted reference run.
	ref, _ := NewCluster(cfg)
	run(ref, 0)
	// Checkpointed run: execute the first half, snapshot, continue on a
	// fresh cluster.
	half, _ := NewCluster(cfg)
	a, b := desc(1, 16, 2), desc(2, 16, 2)
	half.RegisterHostTensor(a)
	half.RegisterHostTensor(b)
	for i := 0; i < 3; i++ {
		if _, err := half.ExecContraction(i%2, a, b, desc(uint64(10+i), 16, 2)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := half.DegradeLink(0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	cp := half.Checkpoint()
	resumed, _ := NewCluster(cfg)
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	run(resumed, 3)
	if got, want := resumed.Makespan(), ref.Makespan(); got != want {
		t.Errorf("resumed makespan %v != reference %v", got, want)
	}
	if got, want := resumed.TotalStats(), ref.TotalStats(); got != want {
		t.Errorf("resumed stats %+v != reference %+v", got, want)
	}
	for i := 0; i < 2; i++ {
		if got, want := resumed.Device(i).MemPeak(), ref.Device(i).MemPeak(); got != want {
			t.Errorf("device %d MemPeak %d != %d", i, got, want)
		}
		if got, want := resumed.Device(i).ResidentCount(), ref.Device(i).ResidentCount(); got != want {
			t.Errorf("device %d residents %d != %d", i, got, want)
		}
	}
	if got, want := resumed.LinkFactor(), ref.LinkFactor(); got != want {
		t.Errorf("link factor %v != %v", got, want)
	}
	// Restore validates shape and nil.
	wrong, _ := NewCluster(testConfig(1))
	if err := wrong.Restore(cp); err == nil {
		t.Error("restore onto wrong device count accepted")
	}
	if err := resumed.Restore(nil); !errors.Is(err, ErrNilArgument) {
		t.Errorf("nil checkpoint: %v, want ErrNilArgument", err)
	}
}

// TestCheckpointRejectsDeadHolder: a snapshot whose failed device still
// lists resident tensors — no run produces one: FailDevice drops everything,
// ReviveDevices clears Resident — is refused by Validate and by Restore,
// which used to install the blocks and name a dead device as a holder.
func TestCheckpointRejectsDeadHolder(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	d := desc(7, 16, 1)
	c.RegisterHostTensor(d)
	if err := c.EnsureResident(1, d); err != nil {
		t.Fatal(err)
	}
	cp := c.Checkpoint()
	cp.Devices[1].Failed = true
	if err := cp.Validate(); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Errorf("Validate returned %v, want ErrInvalidCheckpoint", err)
	}
	fresh, _ := NewCluster(testConfig(2))
	if err := fresh.Restore(cp); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Errorf("Restore returned %v, want ErrInvalidCheckpoint", err)
	}
	if fresh.HoldersMask(7).Has(1) {
		t.Error("a refused Restore left failed device 1 holding tensor 7")
	}
	// What a real loss leaves behind restores fine.
	if err := c.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(c.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if !fresh.DeviceFailed(1) || !fresh.HoldersMask(7).Empty() {
		t.Error("restored loss: device 1 should be failed and hold nothing")
	}
	if err := fresh.Audit(); err != nil {
		t.Error(err)
	}
}
