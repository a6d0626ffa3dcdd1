package gpusim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"micco/internal/obs"
	"micco/internal/tensor"
)

func testConfig(n int) Config {
	cfg := MI100(n)
	cfg.MemoryBytes = 1 << 20 // 1 MiB pools so eviction is easy to trigger
	return cfg
}

func desc(id uint64, dim, batch int) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: dim, Batch: batch}
}

func TestConfigValidate(t *testing.T) {
	if err := MI100(8).Validate(); err != nil {
		t.Fatalf("MI100 config invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := MI100(1); c.NumDevices = 0; return c }(),
		func() Config { c := MI100(1); c.MemoryBytes = -5; return c }(),
		func() Config { c := MI100(1); c.FLOPS = 0; return c }(),
		func() Config { c := MI100(1); c.H2DBandwidth = 0; return c }(),
		func() Config { c := MI100(1); c.KernelLaunch = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewCluster(Config{}); err == nil {
		t.Error("NewCluster with zero config: want error")
	}
}

func TestEnsureResidentH2DCost(t *testing.T) {
	c, err := NewCluster(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d := desc(1, 64, 1) // 64*64*16 = 65536 bytes
	c.RegisterHostTensor(d)
	if err := c.EnsureResident(0, d); err != nil {
		t.Fatal(err)
	}
	dev := c.Device(0)
	wantTransfer := float64(d.Bytes()) / c.Config().H2DBandwidth
	wantClock := wantTransfer + c.Config().AllocLatency
	if got := dev.Clock(); got != wantClock {
		t.Errorf("clock = %v, want %v", got, wantClock)
	}
	if dev.Stats().H2DBytes != d.Bytes() {
		t.Errorf("H2DBytes = %d, want %d", dev.Stats().H2DBytes, d.Bytes())
	}
	if !dev.Holds(1) || dev.MemUsed() != d.Bytes() {
		t.Error("tensor not resident after EnsureResident")
	}
}

func TestEnsureResidentReuseHitIsFree(t *testing.T) {
	c, _ := NewCluster(testConfig(1))
	d := desc(1, 64, 1)
	c.RegisterHostTensor(d)
	if err := c.EnsureResident(0, d); err != nil {
		t.Fatal(err)
	}
	before := c.Device(0).Clock()
	if err := c.EnsureResident(0, d); err != nil {
		t.Fatal(err)
	}
	if got := c.Device(0).Clock(); got != before {
		t.Errorf("reuse hit advanced clock %v -> %v", before, got)
	}
	if c.Device(0).Stats().ReuseHits != 1 {
		t.Errorf("ReuseHits = %d, want 1", c.Device(0).Stats().ReuseHits)
	}
}

func TestEnsureResidentPrefersPeer(t *testing.T) {
	cfg := testConfig(2)
	cfg.PeerFetch = true
	c, _ := NewCluster(cfg)
	d := desc(1, 64, 1)
	c.RegisterHostTensor(d)
	if err := c.EnsureResident(0, d); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(1, d); err != nil {
		t.Fatal(err)
	}
	dev1 := c.Device(1)
	if dev1.Stats().P2PBytes != d.Bytes() || dev1.Stats().H2DBytes != 0 {
		t.Errorf("expected P2P transfer, got P2P=%d H2D=%d",
			dev1.Stats().P2PBytes, dev1.Stats().H2DBytes)
	}
	// P2P is faster than H2D in the MI100 config.
	if dev1.Stats().TransferTime >= c.Device(0).Stats().TransferTime {
		t.Error("P2P transfer should be cheaper than H2D")
	}
}

func TestEnsureResidentUnknownTensor(t *testing.T) {
	c, _ := NewCluster(testConfig(1))
	if err := c.EnsureResident(0, desc(42, 8, 1)); err == nil {
		t.Error("unregistered tensor: want error")
	}
	if err := c.EnsureResident(5, desc(42, 8, 1)); err == nil {
		t.Error("device out of range: want error")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	cfg := testConfig(1)
	cfg.MemoryBytes = 3 * desc(0, 64, 1).Bytes() // exactly three tensors fit
	c, _ := NewCluster(cfg)
	for id := uint64(1); id <= 3; id++ {
		dd := desc(id, 64, 1)
		c.RegisterHostTensor(dd)
		if err := c.EnsureResident(0, dd); err != nil {
			t.Fatal(err)
		}
	}
	// Touch tensor 1 so tensor 2 becomes LRU.
	if err := c.EnsureResident(0, desc(1, 64, 1)); err != nil {
		t.Fatal(err)
	}
	d4 := desc(4, 64, 1)
	c.RegisterHostTensor(d4)
	if err := c.EnsureResident(0, d4); err != nil {
		t.Fatal(err)
	}
	dev := c.Device(0)
	if dev.Holds(2) {
		t.Error("LRU tensor 2 should have been evicted")
	}
	if !dev.Holds(1) || !dev.Holds(3) || !dev.Holds(4) {
		t.Error("wrong eviction victim")
	}
	if dev.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", dev.Stats().Evictions)
	}
	// Clean eviction: no write-back bytes.
	if dev.Stats().D2HBytes != 0 {
		t.Errorf("clean eviction should not write back, D2H=%d", dev.Stats().D2HBytes)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := testConfig(1)
	sz := desc(0, 64, 1).Bytes()
	cfg.MemoryBytes = 3 * sz // a, b, out fill the device exactly
	c, _ := NewCluster(cfg)
	a, b := desc(1, 64, 1), desc(2, 64, 1)
	out := desc(3, 64, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatal(err)
	}
	if !c.Device(0).Holds(3) {
		t.Fatal("output not resident after kernel")
	}
	// Force out (dirty) to be the eviction victim: touch a and b first.
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(0, b); err != nil {
		t.Fatal(err)
	}
	d4 := desc(4, 64, 1)
	c.RegisterHostTensor(d4)
	if err := c.EnsureResident(0, d4); err != nil {
		t.Fatal(err)
	}
	dev := c.Device(0)
	if dev.Holds(3) {
		t.Error("dirty output should have been evicted")
	}
	if dev.Stats().D2HBytes != sz {
		t.Errorf("dirty eviction D2HBytes = %d, want %d", dev.Stats().D2HBytes, sz)
	}
	if !c.HostHolds(3) {
		t.Error("written-back tensor should be host resident")
	}
	// And it can be re-fetched from host afterwards.
	if err := c.EnsureResident(0, out); err != nil {
		t.Errorf("re-fetch of written-back tensor failed: %v", err)
	}
}

func TestExecContractionTiming(t *testing.T) {
	cfg := testConfig(1)
	c, _ := NewCluster(cfg)
	a, b := desc(1, 32, 2), desc(2, 32, 2)
	out := desc(3, 32, 2)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	flops, err := c.ExecContraction(0, a, b, out)
	if err != nil {
		t.Fatal(err)
	}
	wantFlops, _ := tensor.ContractFLOPs(a, b)
	if flops != wantFlops {
		t.Errorf("flops = %d, want %d", flops, wantFlops)
	}
	dev := c.Device(0)
	wantKernel := cfg.KernelLaunch + float64(wantFlops)/cfg.FLOPS
	if got := dev.Stats().KernelTime; got != wantKernel {
		t.Errorf("KernelTime = %v, want %v", got, wantKernel)
	}
	wantTransfer := 2 * float64(a.Bytes()) / cfg.H2DBandwidth
	if got := dev.Stats().TransferTime; !near(got, wantTransfer) {
		t.Errorf("TransferTime = %v, want %v", got, wantTransfer)
	}
	wantClock := wantKernel + wantTransfer + 3*cfg.AllocLatency
	if got := dev.Clock(); !near(got, wantClock) {
		t.Errorf("Clock = %v, want %v", got, wantClock)
	}
	if c.GFLOPS() <= 0 {
		t.Error("GFLOPS should be positive after a kernel")
	}
}

func TestExecContractionPinnedInputsSurviveOutputAlloc(t *testing.T) {
	cfg := testConfig(1)
	sz := desc(0, 64, 1).Bytes()
	cfg.MemoryBytes = 3 * sz // exactly a, b, out
	c, _ := NewCluster(cfg)
	// Pre-fill with an unrelated tensor so the output alloc must evict.
	x := desc(9, 64, 1)
	c.RegisterHostTensor(x)
	if err := c.EnsureResident(0, x); err != nil {
		t.Fatal(err)
	}
	a, b, out := desc(1, 64, 1), desc(2, 64, 1), desc(3, 64, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatal(err)
	}
	dev := c.Device(0)
	if dev.Holds(9) {
		t.Error("unpinned filler should have been evicted")
	}
	if !dev.Holds(1) || !dev.Holds(2) || !dev.Holds(3) {
		t.Error("inputs/output must survive output allocation")
	}
}

func TestExecContractionTooLarge(t *testing.T) {
	cfg := testConfig(1)
	cfg.MemoryBytes = 100 // nothing fits
	c, _ := NewCluster(cfg)
	a, b := desc(1, 64, 1), desc(2, 64, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, desc(3, 64, 1)); err == nil {
		t.Error("oversized tensor: want error")
	}
}

func TestBarrierAndMakespan(t *testing.T) {
	c, _ := NewCluster(testConfig(3))
	a, b := desc(1, 64, 2), desc(2, 64, 2)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(1, a, b, desc(3, 64, 2)); err != nil {
		t.Fatal(err)
	}
	m := c.Makespan()
	if m <= 0 || m != c.Device(1).Clock() {
		t.Errorf("Makespan = %v, want device 1 clock %v", m, c.Device(1).Clock())
	}
	c.Barrier()
	for i := 0; i < 3; i++ {
		if c.Device(i).Clock() != m {
			t.Errorf("device %d clock %v after barrier, want %v", i, c.Device(i).Clock(), m)
		}
	}
}

func TestDiscard(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	d := desc(1, 64, 1)
	c.RegisterHostTensor(d)
	if err := c.EnsureResident(0, d); err != nil {
		t.Fatal(err)
	}
	c.Discard(1)
	if c.Device(0).Holds(1) || c.HostHolds(1) {
		t.Error("Discard should remove all copies")
	}
	if c.Device(0).MemUsed() != 0 {
		t.Error("Discard should free memory")
	}
}

func TestHoldersOfAndReset(t *testing.T) {
	c, _ := NewCluster(testConfig(3))
	d := desc(1, 64, 1)
	c.RegisterHostTensor(d)
	for _, dev := range []int{0, 2} {
		if err := c.EnsureResident(dev, d); err != nil {
			t.Fatal(err)
		}
	}
	h := c.HoldersMask(1).AppendTo(nil)
	if len(h) != 2 || h[0] != 0 || h[1] != 2 {
		t.Errorf("holders = %v, want [0 2]", h)
	}
	c.Reset()
	if !c.HoldersMask(1).Empty() || c.HostHolds(1) || c.Makespan() != 0 {
		t.Error("Reset did not clear state")
	}
	if c.GFLOPS() != 0 {
		t.Error("GFLOPS after reset should be 0")
	}
}

// Property: memory accounting never exceeds capacity and never goes
// negative, across random op sequences.
func TestMemoryAccountingInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig(2)
		cfg.MemoryBytes = int64(4+rng.Intn(8)) * desc(0, 32, 1).Bytes()
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		nextID := uint64(1)
		live := []tensor.Desc{}
		for op := 0; op < 60; op++ {
			var a, b tensor.Desc
			// Mix fresh and repeated operands.
			if len(live) > 1 && rng.Intn(2) == 0 {
				a = live[rng.Intn(len(live))]
				b = live[rng.Intn(len(live))]
				if a.ID == b.ID {
					continue
				}
			} else {
				a = desc(nextID, 32, 1)
				nextID++
				b = desc(nextID, 32, 1)
				nextID++
				c.RegisterHostTensor(a)
				c.RegisterHostTensor(b)
				live = append(live, a, b)
			}
			out := desc(nextID, 32, 1)
			nextID++
			dev := rng.Intn(2)
			if _, err := c.ExecContraction(dev, a, b, out); err != nil {
				return false
			}
			live = append(live, out)
			for i := 0; i < 2; i++ {
				d := c.Device(i)
				if d.MemUsed() < 0 || d.MemUsed() > cfg.MemoryBytes {
					return false
				}
				// Clock must be monotone non-negative.
				if d.Clock() < 0 {
					return false
				}
			}
		}
		// Residency sets must be consistent with memory accounting.
		for i := 0; i < 2; i++ {
			d := c.Device(i)
			var sum int64
			for _, ld := range live {
				if d.Holds(ld.ID) {
					sum += ld.Bytes()
				}
			}
			if sum != d.MemUsed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

// Property: the simulator is deterministic — identical op sequences give
// identical clocks and stats.
func TestDeterminism(t *testing.T) {
	run := func() (float64, DeviceStats) {
		c, _ := NewCluster(testConfig(2))
		for id := uint64(1); id <= 20; id += 2 {
			a, b := desc(id, 48, 1), desc(id+1, 48, 1)
			c.RegisterHostTensor(a)
			c.RegisterHostTensor(b)
			if _, err := c.ExecContraction(int(id)%2, a, b, desc(100+id, 48, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return c.Makespan(), c.TotalStats()
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 || s1 != s2 {
		t.Error("simulator is not deterministic")
	}
}

// near reports whether two times agree to within a relative 1e-12.
func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := math.Abs(a) + math.Abs(b) + 1e-30
	return d/scale < 1e-12
}

func TestSharedHostLinkSerializesTransfers(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	d1, d2 := desc(1, 64, 1), desc(2, 64, 1)
	c.RegisterHostTensor(d1)
	c.RegisterHostTensor(d2)
	if err := c.EnsureResident(0, d1); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(1, d2); err != nil {
		t.Fatal(err)
	}
	dur := float64(d1.Bytes()) / c.Config().H2DBandwidth
	// Device 0 transferred first [0, dur]; device 1's transfer must queue
	// behind it on the shared link and finish around 2*dur.
	if got := c.Device(1).Clock(); got < 2*dur {
		t.Errorf("device 1 clock %v: expected link stall past %v", got, 2*dur)
	}
	if got := c.Device(0).Clock(); got > dur+c.Config().AllocLatency+1e-12 {
		t.Errorf("device 0 clock %v should not include device 1's transfer", got)
	}
}

func TestHostStagingWhenPeerFetchDisabled(t *testing.T) {
	cfg := testConfig(2) // PeerFetch off by default
	c, _ := NewCluster(cfg)
	a, b := desc(1, 64, 1), desc(2, 64, 1)
	out := desc(3, 64, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatal(err)
	}
	// out is dirty on device 0 only. Using it on device 1 must stage
	// through the host: one D2H on device 0, one H2D on device 1.
	busy := c.Device(0).Stats().TransferTime
	if err := c.EnsureResident(1, out); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Device(0).Stats().TransferTime-busy, float64(out.Bytes())/cfg.D2HBandwidth; got < want*(1-1e-9) {
		t.Errorf("staging charged device 0 %g s of transfer, want at least the write-back's %g", got, want)
	}
	if c.Device(0).Stats().D2HBytes != out.Bytes() {
		t.Errorf("D2H staging bytes = %d, want %d", c.Device(0).Stats().D2HBytes, out.Bytes())
	}
	if c.Device(1).Stats().H2DBytes != out.Bytes() {
		t.Errorf("H2D bytes = %d, want %d", c.Device(1).Stats().H2DBytes, out.Bytes())
	}
	if c.Device(1).Stats().P2PBytes != 0 {
		t.Error("peer fetch disabled: no P2P bytes expected")
	}
	if !c.HostHolds(out.ID) {
		t.Error("staged tensor should now be host resident")
	}
}

func TestAsyncCopyOverlapsTransfersWithKernels(t *testing.T) {
	// Two independent contractions on one device: with a synchronous copy
	// engine the second pair's transfers queue behind the first kernel;
	// with AsyncCopy they overlap it, so the makespan strictly shrinks.
	run := func(async bool) float64 {
		cfg := MI100(1)
		cfg.AsyncCopy = async
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 4; id++ {
			c.RegisterHostTensor(desc(id, 256, 4))
		}
		if _, err := c.ExecContraction(0, desc(1, 256, 4), desc(2, 256, 4), desc(10, 256, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExecContraction(0, desc(3, 256, 4), desc(4, 256, 4), desc(11, 256, 4)); err != nil {
			t.Fatal(err)
		}
		return c.Makespan()
	}
	sync := run(false)
	async := run(true)
	if async >= sync {
		t.Errorf("async makespan %v should beat sync %v", async, sync)
	}
	// The kernel still cannot start before its own operands arrive: a
	// single contraction has nothing to overlap, so both modes agree on
	// the kernel completion time.
	single := func(asyncMode bool) float64 {
		cfg := MI100(1)
		cfg.AsyncCopy = asyncMode
		c, _ := NewCluster(cfg)
		c.RegisterHostTensor(desc(1, 128, 2))
		c.RegisterHostTensor(desc(2, 128, 2))
		if _, err := c.ExecContraction(0, desc(1, 128, 2), desc(2, 128, 2), desc(3, 128, 2)); err != nil {
			t.Fatal(err)
		}
		return c.Device(0).Clock()
	}
	if !near(single(false), single(true)) {
		t.Errorf("single-contraction completion differs: sync %v vs async %v",
			single(false), single(true))
	}
}

func TestAsyncCopyClockAccessors(t *testing.T) {
	cfg := testConfig(1)
	cfg.AsyncCopy = true
	c, _ := NewCluster(cfg)
	d1 := desc(1, 64, 1)
	c.RegisterHostTensor(d1)
	if err := c.EnsureResident(0, d1); err != nil {
		t.Fatal(err)
	}
	dev := c.Device(0)
	if dev.CopyClock() <= 0 {
		t.Error("copy queue should have advanced")
	}
	if dev.Clock() != 0 {
		t.Error("compute queue should be untouched by a bare transfer")
	}
	if c.Makespan() != dev.CopyClock() {
		t.Error("makespan should cover the copy queue")
	}
	c.Barrier()
	if dev.Clock() != dev.CopyClock() {
		t.Error("barrier should align both queues")
	}
	// Sync mode: CopyClock aliases Clock.
	c2, _ := NewCluster(testConfig(1))
	c2.RegisterHostTensor(d1)
	if err := c2.EnsureResident(0, d1); err != nil {
		t.Fatal(err)
	}
	if c2.Device(0).CopyClock() != c2.Device(0).Clock() {
		t.Error("sync CopyClock should equal Clock")
	}
}

// TestLinkContention books two copies on each kind of shared channel —
// node 0's host link, node 1's host link, a node's P2P fabric and the
// inter-node interconnect — after traffic on another channel. The two
// copies must queue back to back on their own channel and wait on no other,
// the second copy's stall must land in that channel's series only, and
// Reset must free every link: a second pass on the reset cluster repeats the
// first exactly.
func TestLinkContention(t *testing.T) {
	cfg := testConfig(6)
	cfg.NodeSize, cfg.PeerFetch, cfg.AllocLatency = 3, true, 0
	cfg.InterNodeBandwidth, cfg.InterNodeLatency = 12e9, 5e-6
	bg, t1, t2 := desc(10, 64, 1), desc(1, 64, 1), desc(2, 64, 1)
	bytes := float64(t1.Bytes())
	cases := []struct {
		name         string
		kind         obs.EventKind
		ch           int
		dur          float64
		bgNode, bgOn int // bg's host partition, and the device that fetches it first
		node         int // t1's and t2's host partition
		peer         int // the device that fetches t1 and t2 after bg, or -1
		a, b         int // the devices whose fetches of t1 and t2 are measured
	}{
		{"node0-host", obs.EventH2D, hostChannel, bytes / cfg.H2DBandwidth, 1, 3, 0, -1, 0, 1},
		{"node1-host", obs.EventH2D, hostChannel, bytes / cfg.H2DBandwidth, 0, 0, 1, -1, 3, 4},
		{"p2p", obs.EventP2P, p2pChannel, bytes / cfg.P2PBandwidth, 0, 0, 0, 0, 1, 2},
		{"inter", obs.EventInter, interChannel, cfg.InterNodeLatency + bytes/cfg.InterNodeBandwidth, 0, 0, 0, -1, 3, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fetch := func(dev int, d tensor.Desc) {
				if err := c.EnsureResident(dev, d); err != nil {
					t.Fatal(err)
				}
			}
			for pass := 0; pass < 2; pass++ {
				reg := obs.New()
				c.SetObserver(reg)
				c.StartTrace()
				c.hostCopy(c.slot(bg.ID), tc.bgNode)
				c.hostCopy(c.slot(t1.ID), tc.node)
				c.hostCopy(c.slot(t2.ID), tc.node)
				fetch(tc.bgOn, bg)
				if tc.peer >= 0 {
					fetch(tc.peer, t1)
					fetch(tc.peer, t2)
				}
				fetch(tc.a, t1)
				fetch(tc.b, t2)
				c.SetObserver(nil) // publishes
				var got [][2]float64
				for _, e := range c.StopTrace() {
					if e.Kind == tc.kind && e.Tensor != bg.ID {
						got = append(got, [2]float64{e.Start, e.End})
					}
				}
				if want := [][2]float64{{0, tc.dur}, {tc.dur, 2 * tc.dur}}; !reflect.DeepEqual(got, want) {
					t.Errorf("pass %d: %v copies = %v, want back to back from zero %v", pass, tc.kind, got, want)
				}
				for ch, series := range linkSeries {
					want := 0.0
					if ch == tc.ch {
						want = tc.dur
					}
					if v := reg.Counter(series.stall).Value(); v != want {
						t.Errorf("pass %d: %s = %v, want %v", pass, series.stall, v, want)
					}
				}
				c.Reset()
				for i, l := range c.links {
					if l.free != 0 {
						t.Errorf("pass %d: Reset left link %d booked until %v", pass, i, l.free)
					}
				}
			}
		})
	}
}
