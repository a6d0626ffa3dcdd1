package gpusim

import (
	"errors"
	"math/rand"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestDeviceMaskOps pins the one-word reference of devset_test.go to
// hand-computed values, so the cross-check against it means something.
func TestDeviceMaskOps(t *testing.T) {
	var m deviceMask
	if m.Count() != 0 || m.First() != -1 || m.Has(0) {
		t.Errorf("empty mask misbehaves: %v %v %v", m.Count(), m.First(), m.Has(0))
	}
	if got := m.AppendTo(nil); got != nil {
		t.Errorf("empty AppendTo = %v, want nil", got)
	}
	m = 1<<2 | 1<<5 | 1<<63
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	if m.First() != 2 {
		t.Errorf("First = %d, want 2", m.First())
	}
	if !m.Has(5) || m.Has(4) {
		t.Error("Has answers wrong membership")
	}
	if got := m.DropFirst(); got != 1<<5|1<<63 {
		t.Errorf("DropFirst = %b", got)
	}
	buf := make([]int, 0, 3)
	got := m.AppendTo(buf)
	want := []int{2, 5, 63}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("AppendTo = %v, want %v", got, want)
	}
	if &got[0] != &buf[0:1][0] {
		t.Error("AppendTo reallocated despite sufficient capacity")
	}
	// The canonical iteration idiom enumerates ascending device IDs.
	var iter []int
	for s := m; s != 0; s = s.DropFirst() {
		iter = append(iter, s.First())
	}
	if len(iter) != 3 || iter[0] != 2 || iter[1] != 5 || iter[2] != 63 {
		t.Errorf("iteration = %v, want %v", iter, want)
	}
	// The conversion to a DevSet preserves membership.
	if s := m.DevSet(); s.Word(0) != uint64(m) || !s.Equal(DevSetOf(2, 5, 63)) {
		t.Errorf("DevSet conversion = %b, want %b", s.Word(0), m)
	}
}

func TestConfigRejectsOversizedCluster(t *testing.T) {
	cfg := MI100(MaxDevices + 1)
	err := cfg.Validate()
	if err == nil {
		t.Fatalf("Validate accepted %d devices; the simulator caps at %d",
			MaxDevices+1, MaxDevices)
	}
	if !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("oversize error = %v, want ErrInvalidConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "NumDevices" {
		t.Errorf("oversize error = %#v, want *ConfigError{Field: NumDevices}", err)
	}
	// The cap itself is legal.
	if err := MI100(MaxDevices).Validate(); err != nil {
		t.Fatalf("Validate rejected %d devices: %v", MaxDevices, err)
	}
}

// scanHolders recomputes a tensor's holder set the pre-index way: a
// residency probe on every device.
func scanHolders(c *Cluster, id uint64) DevSet {
	var m DevSet
	for i := 0; i < c.NumDevices(); i++ {
		if c.Device(i).Holds(id) {
			m = m.with(i, 0)
		}
	}
	return m
}

// checkIndex asserts the residency index agrees with a brute-force scan of
// every device's residency map, in both directions: every indexed tensor's
// set matches its scan, and every resident tensor is indexed.
func checkIndex(t *testing.T, c *Cluster, ids []uint64) {
	t.Helper()
	for _, id := range ids {
		if got, want := c.HoldersMask(id), scanHolders(c, id); !got.Equal(want) {
			t.Fatalf("index set for tensor %d = %v, scan says %v", id, got.AppendTo(nil), want.AppendTo(nil))
		}
	}
	for i := 0; i < c.NumDevices(); i++ {
		d := c.Device(i)
		for id := range d.resident {
			if !c.HoldersMask(id).Has(i) {
				t.Fatalf("device %d holds tensor %d but index bit is clear", i, id)
			}
		}
	}
	// No stale entries: an indexed set may never name a device that does
	// not actually hold the tensor (covered per-id above), and the index
	// never keeps empty sets alive.
	for id, r := range c.index.recs {
		if r.holders.Empty() && !r.onHost {
			t.Fatalf("index keeps a record for tensor %d, which is nowhere", id)
		}
		if r.holders.Empty() && r.holders.rest != nil {
			t.Fatalf("tensor %d is on no device, yet its holder set keeps %d spill words", id, len(r.holders.rest))
		}
		if !r.onHost && !r.hostNodes.Empty() {
			t.Fatalf("tensor %d has no host copy, yet host nodes %v", id, r.hostNodes.AppendTo(nil))
		}
	}
	// A recycled record goes to its next tensor as it is: both sets must
	// have come back empty, the holder set without its spill.
	for _, r := range c.index.free {
		if r.onHost || r.holders.w0 != 0 || r.holders.rest != nil || !r.hostNodes.Empty() {
			t.Fatalf("recycled record not empty: %+v", *r)
		}
	}
	checkMoveStats(t, c)
}

// checkMoveStats asserts the cluster's running movement totals equal the
// sums of the device counters they shadow.
func checkMoveStats(t *testing.T, c *Cluster) {
	t.Helper()
	var move, d2h, evict int64
	for _, d := range c.devices {
		move += d.stats.H2DBytes + d.stats.P2PBytes
		d2h += d.stats.D2HBytes
		evict += d.stats.Evictions
	}
	if m, h, e := c.MoveStats(); m != move || h != d2h || e != evict {
		t.Fatalf("MoveStats = (%d, %d, %d), devices sum to (%d, %d, %d)", m, h, e, move, d2h, evict)
	}
}

// TestMoveStatsTrackDeviceSums walks a two-node cluster short of memory
// through everything that moves a movement counter or rewrites them all —
// fetches from host, peers and across nodes, host staging, dirty
// write-backs, evictions, discards, a memory shrink, a device loss, and a
// checkpoint restored into a second cluster that then carries on — and
// holds the running totals to the device sums throughout. Every branch must
// have moved something, or the walk proved nothing.
func TestMoveStatsTrackDeviceSums(t *testing.T) {
	desc := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
	}
	for _, peer := range []bool{false, true} {
		cfg := MI100Nodes(2, 4)
		cfg.PeerFetch = peer
		cfg.MemoryBytes = 5 * desc(1).Bytes()
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(18))
		var ids []uint64
		for id := uint64(1); id <= 16; id++ {
			ids = append(ids, id)
			c.RegisterHostTensor(desc(id))
		}
		walk := func(c *Cluster, steps int) {
			for step := 0; step < steps; step++ {
				dev := rng.Intn(c.NumDevices())
				if c.DeviceFailed(dev) {
					continue
				}
				if rng.Intn(5) == 0 {
					id := ids[rng.Intn(len(ids))]
					c.Discard(id)
					c.RegisterHostTensor(desc(id))
				} else {
					out := uint64(1000 + len(ids))
					a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
					// Outputs that lived only on the lost device are gone.
					if _, err := c.ExecContraction(dev, desc(a), desc(b), desc(out)); err == nil {
						ids = append(ids, out)
					} else if !errors.Is(err, ErrTensorUnavailable) {
						t.Fatalf("peer %v step %d: %v", peer, step, err)
					}
				}
				checkMoveStats(t, c)
			}
		}
		walk(c, 300)
		if err := c.SetMemoryCapacity(1, 3*desc(1).Bytes()); err != nil {
			t.Fatal(err)
		}
		checkMoveStats(t, c)
		if err := c.FailDevice(6); err != nil {
			t.Fatal(err)
		}
		walk(c, 100)
		resumed, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(c.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		checkMoveStats(t, resumed)
		if m, _, _ := resumed.MoveStats(); m == 0 {
			t.Fatal("restore zeroed the running totals")
		}
		walk(resumed, 100)
		total := resumed.TotalStats()
		if total.H2DBytes == 0 || total.D2HBytes == 0 || total.Evictions == 0 || (total.P2PBytes > 0) != peer {
			t.Errorf("peer %v: walk left a counter untouched: %+v", peer, total)
		}
		resumed.Reset()
		if m, h, e := resumed.MoveStats(); m != 0 || h != 0 || e != 0 {
			t.Errorf("MoveStats after Reset = (%d, %d, %d), want zeros", m, h, e)
		}
	}
}

// TestSteadyStateRunAllocatesNothing replays one stage of the ladder's
// sched_scale workload on its 512x8 cluster: once records, spill words,
// device blocks and maps have been sized by a first pass, Reset, input
// registration and every contraction of the stage run without the
// simulator allocating. Placement is a fixed stride over the devices, wide
// of the inline word, so nearly every holder set spills.
func TestSteadyStateRunAllocatesNothing(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: 1, VectorSize: 4096, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(MI100Nodes(512, 8))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		c.Reset()
		for _, d := range w.Inputs {
			c.RegisterHostTensor(d)
		}
		for pi, p := range w.Stages[0].Pairs {
			if _, err := c.ExecContraction(pi*509%c.NumDevices(), p.A, p.B, p.Out); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if avg := testing.AllocsPerRun(3, run); avg != 0 {
		t.Errorf("a repeat run allocates %g times in gpusim, want 0", avg)
	}
}

// TestResidencyIndexInvariant drives the simulator through a randomized
// sequence of contractions (allocations, peer copies, host staging, dirty
// write-backs and evictions under scarce memory), discards and resets, and
// after every operation asserts HoldersMask agrees with a brute-force scan
// of Device.Holds. The 96-device case exercises multi-word holder sets
// (members on both sides of the 64-bit boundary). Run under -race via
// `make race`/`make check`.
func TestResidencyIndexInvariant(t *testing.T) {
	for _, devs := range []int{1, 3, 8, 96} {
		cfg := MI100(devs)
		desc := func(id uint64) tensor.Desc {
			return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
		}
		// Scarce memory: room for only a few tensors per device so the
		// randomized walk constantly evicts and restages from host/peers.
		cfg.MemoryBytes = 6 * desc(1).Bytes()
		steps := 400
		if devs > 8 {
			// The wide case costs O(devs) per scan; trim the walk so the
			// suite stays fast while still crossing the word boundary.
			cfg.PeerFetch = true // spread copies across both words
			steps = 200
		}
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + devs)))
		const nTensors = 24
		var ids []uint64
		for id := uint64(1); id <= nTensors; id++ {
			ids = append(ids, id)
			c.RegisterHostTensor(desc(id))
		}
		nextOut := uint64(nTensors + 1)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // contraction: allocs, transfers, maybe evictions
				a := ids[rng.Intn(len(ids))]
				b := ids[rng.Intn(len(ids))]
				out := nextOut
				nextOut++
				ids = append(ids, out)
				if _, err := c.ExecContraction(rng.Intn(devs), desc(a), desc(b), desc(out)); err != nil {
					t.Fatalf("devs %d step %d: %v", devs, step, err)
				}
			case op < 7: // explicit staging
				if err := c.EnsureResident(rng.Intn(devs), desc(ids[rng.Intn(len(ids))])); err != nil {
					t.Fatalf("devs %d step %d: %v", devs, step, err)
				}
			case op < 9: // discard from all memories, then re-register on
				// host so a later op may restage it
				id := ids[rng.Intn(len(ids))]
				c.Discard(id)
				c.RegisterHostTensor(desc(id))
			default: // full reset
				c.Reset()
				ids = ids[:nTensors]
				nextOut = nTensors + 1
				for _, id := range ids {
					c.RegisterHostTensor(desc(id))
				}
			}
			checkIndex(t, c, ids)
		}
	}
}

// scanDiscard is Discard as it was before it consulted the residency
// index: a residency-map probe on every device.
func scanDiscard(c *Cluster, id uint64) {
	for _, d := range c.devices {
		if b, ok := d.resident[id]; ok {
			d.drop(b, c.index.recs[id])
		}
	}
	if r := c.index.recs[id]; r != nil {
		c.dropHostCopy(id, r)
	}
}

// TestDiscardWalksHoldersOnly runs the same seeded contraction-and-discard
// stream on two 256-device clusters, one discarding through the holder set
// the index names and one through the former every-device probe, and
// requires identical per-device stats, memory and makespan — with the
// residency invariant checked on the live cluster along the way.
// Peer fetch spreads copies so discarded tensors have several holders on
// both sides of the DevSet word seam.
func TestDiscardWalksHoldersOnly(t *testing.T) {
	const devs = 256
	cfg := MI100Nodes(4, 64)
	cfg.PeerFetch = true
	desc := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
	}
	cfg.MemoryBytes = 8 * desc(1).Bytes()
	run := func(discard func(*Cluster, uint64), check bool) *Cluster {
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(256))
		var ids []uint64
		for id := uint64(1); id <= 32; id++ {
			ids = append(ids, id)
			c.RegisterHostTensor(desc(id))
		}
		for step := 0; step < 3000; step++ {
			if rng.Intn(4) > 0 {
				out := uint64(1000 + step)
				a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if _, err := c.ExecContraction(rng.Intn(devs), desc(a), desc(b), desc(out)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ids = append(ids, out)
				continue
			}
			id := ids[rng.Intn(len(ids))]
			discard(c, id)
			c.RegisterHostTensor(desc(id))
			if check && step%16 == 0 { // the check is O(tensors × devices)
				checkIndex(t, c, ids)
			}
		}
		return c
	}
	live := run((*Cluster).Discard, true)
	ref := run(scanDiscard, false)
	if live.Makespan() != ref.Makespan() {
		t.Errorf("makespan %g != every-device-probe reference %g", live.Makespan(), ref.Makespan())
	}
	for i := 0; i < devs; i++ {
		l, r := live.Device(i), ref.Device(i)
		if l.Stats() != r.Stats() || l.MemUsed() != r.MemUsed() || l.MemPeak() != r.MemPeak() || l.ResidentCount() != r.ResidentCount() {
			t.Fatalf("device %d diverges from reference:\n %+v mem %d\n %+v mem %d", i, l.Stats(), l.MemUsed(), r.Stats(), r.MemUsed())
		}
	}
}
