package gpusim

import (
	"errors"
	"math"
	"math/rand"
	"strings"
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
	if s := m.DevSet(); s.w0 != uint64(m) || s.far != nil || !s.Equal(DevSetOf(2, 5, 63)) {
		t.Errorf("DevSet conversion = %b, far %v, want %b", s.w0, s.far, m)
	}
}

// TestConfigRejectsOversizedCluster checks the device cap, and with it
// that no accepted count overflows the int32 an obs.Event stores a device in.
func TestConfigRejectsOversizedCluster(t *testing.T) {
	for _, n := range []int{MaxDevices + 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt} {
		cfg := MI100(8)
		cfg.NumDevices = n
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("Validate accepted %d devices; the simulator caps at %d", n, MaxDevices)
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%d devices: error = %v, want ErrInvalidConfig", n, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "NumDevices" {
			t.Errorf("%d devices: error = %#v, want *ConfigError{Field: NumDevices}", n, err)
		}
	}
	// The cap itself is legal.
	if err := MI100(MaxDevices).Validate(); err != nil {
		t.Fatalf("Validate rejected %d devices: %v", MaxDevices, err)
	}
}

// checkAudit fails the test unless the cluster's structures agree with
// each other (Cluster.Audit).
func checkAudit(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveStatsTrackDeviceSums walks a two-node cluster short of memory
// through everything that moves a movement counter or rewrites them all —
// fetches from host, peers and across nodes, host staging, dirty
// write-backs, evictions, discards, a memory shrink and a device loss — and
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
				checkAudit(t, c)
			}
		}
		walk(c, 300)
		if err := c.SetMemoryCapacity(1, 3*desc(1).Bytes()); err != nil {
			t.Fatal(err)
		}
		checkAudit(t, c)
		if err := c.FailDevice(6); err != nil {
			t.Fatal(err)
		}
		walk(c, 200)
		total := c.TotalStats()
		if total.H2DBytes == 0 || total.D2HBytes == 0 || total.Evictions == 0 || (total.P2PBytes > 0) != peer {
			t.Errorf("peer %v: walk left a counter untouched: %+v", peer, total)
		}
		c.Reset()
		if m, h, e := c.MoveStats(); m != 0 || h != 0 || e != 0 {
			t.Errorf("MoveStats after Reset = (%d, %d, %d), want zeros", m, h, e)
		}
	}
}

// TestSteadyStateRunAllocatesNothing replays one stage of the ladder's
// sched_scale workload on its 512x8 cluster, through the ID-keyed boundary
// of a cluster nobody bound: once the id→slot table, records, spill words
// and block slab have been sized by a first pass, Reset, input registration
// and every contraction of the stage run without the simulator allocating.
// Placement is a fixed stride over the devices, wide of the inline word, so
// nearly every holder set spills.
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
// write-backs and evictions under scarce memory), discards, resets, device
// losses and returns, memory shrinks, injected transfer failures and
// barriers, and audits the structures after every operation. The 96-device
// case exercises holder sets with members on both sides of the inline
// word, the 4096-device one the ladder's width: holder runs and host nodes
// past the inline word. There the walk must also have seen a holder set
// spill, empty (letting go of its run) and spill again, a full run move to
// the next size, a freed run taken again, a host-node run, and the slab
// grow under an ID-keyed call while a set was spilled (every spilled view
// must then read the new slab). Run under -race via `make race`/`make
// check`.
func TestResidencyIndexInvariant(t *testing.T) {
	desc := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
	}
	for _, devs := range []int{1, 3, 8, 96, 4096} {
		cfg := MI100(devs)
		// Scarce memory: room for only a few tensors per device so the
		// randomized walk constantly evicts and restages from host/peers.
		cfg.MemoryBytes = 6 * desc(1).Bytes()
		steps := 400
		if devs > 8 {
			// An audit costs O(devs + tensors); trim the walk so the suite
			// stays fast while still crossing the word boundary.
			cfg.PeerFetch = true // spread copies across both words
			steps = 200
		}
		if devs == 4096 {
			cfg = MI100Nodes(512, 8)
			cfg.PeerFetch = true
			cfg.MemoryBytes = 6 * desc(1).Bytes()
			steps = 240
		}
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + devs)))
		// pick favours the low devices, so that copies meet and memory runs
		// short on any width, and reaches every device now and then.
		pick := func() int {
			if rng.Intn(4) > 0 {
				return rng.Intn(min(devs, 6))
			}
			return rng.Intn(devs)
		}
		const nTensors = 24
		var ids []uint64
		for id := uint64(1); id <= nTensors; id++ {
			ids = append(ids, id)
			c.RegisterHostTensor(desc(id))
		}
		nextOut := uint64(nTensors + 1)
		// Faults make operations fail in ways the walk expects: a lost
		// device refuses work, a lost output is nowhere, an injected
		// failure strikes a fetch. Anything else is a bug.
		expected := func(err error) bool {
			return err == nil || errors.Is(err, ErrDeviceLost) || errors.Is(err, ErrTensorUnavailable) || errors.Is(err, ErrTransientTransfer)
		}
		ran := map[string]int{}
		// spills[s] is how slot s's holder set has gone, in steps that
		// neither reset nor replaced the cluster: 1 spilled, 2 emptied after
		// that (spilling again counts a "respill").
		spills := map[int]int{}
		// class[s] is the class of spilled slot s's run before the step;
		// freed lists the runs free before it.
		class := map[int]uint8{}
		freed := map[runRef]bool{}
		for step := 0; step < steps; step++ {
			slabCap := cap(c.index.slab)
			clear(class)
			clear(freed)
			for s, r := range c.index.recs {
				if r.spilled {
					class[s] = c.index.held[s].class
				}
			}
			for k, offs := range c.index.freed {
				for _, off := range offs {
					freed[runRef{off: off, class: uint8(k)}] = true
				}
			}
			before := c
			switch op := rng.Intn(20); {
			case op < 10: // contraction: allocs, transfers, maybe evictions
				a := ids[rng.Intn(len(ids))]
				b := ids[rng.Intn(len(ids))]
				_, err := c.ExecContraction(pick(), desc(a), desc(b), desc(nextOut))
				if !expected(err) {
					t.Fatalf("devs %d step %d: %v", devs, step, err)
				}
				if err == nil {
					ids = append(ids, nextOut)
					nextOut++
					ran["exec"]++
				}
			case op < 12: // explicit staging
				if err := c.EnsureResident(pick(), desc(ids[rng.Intn(len(ids))])); !expected(err) {
					t.Fatalf("devs %d step %d: %v", devs, step, err)
				}
			case op < 15: // discard from all memories, then re-register on
				// host so a later op may restage it
				id := ids[rng.Intn(len(ids))]
				c.Discard(id)
				c.RegisterHostTensor(desc(id))
				ran["discard"]++
			case op < 16: // device loss, or return of the lost
				dev := pick()
				if c.DeviceFailed(dev) {
					err = c.RestoreDevice(dev)
				} else {
					err = c.FailDevice(dev)
				}
				if err != nil {
					t.Fatal(err)
				}
				ran["fail"]++
			case op < 17: // memory shrink (three tensors always fit) or return
				if err := c.SetMemoryCapacity(pick(), int64(3+rng.Intn(4))*desc(1).Bytes()); err != nil {
					t.Fatalf("devs %d step %d: %v", devs, step, err)
				}
				ran["shrink"]++
			case op < 18:
				c.InjectTransientFailures(1 + rng.Intn(2))
			case op < 19: // stage barrier: clocks align, residency stays
				c.Barrier()
			default: // full reset
				c.Reset()
				clear(spills)
				ids = ids[:nTensors]
				nextOut = nTensors + 1
				for _, id := range ids {
					c.RegisterHostTensor(desc(id))
				}
			}
			checkAudit(t, c)
			if c != before || devs <= InlineDevices {
				continue
			}
			ri := c.index
			if len(class) > 0 && cap(ri.slab) > slabCap {
				ran["grow-spilled"]++
			}
			for s, r := range ri.recs {
				if h := ri.hosts[s].far; r.onHost && h.n > 0 {
					ran["host-run"]++
					if freed[runRef{off: h.off, class: h.class}] {
						ran["reuse"]++
					}
				}
				if !r.spilled {
					if spills[s] == 1 {
						spills[s] = 2
					}
					continue
				}
				h := ri.held[s]
				if v := c.HoldersAt(s); &v.far[0] != &ri.slab[h.off] {
					t.Fatalf("devs %d step %d: slot %d's holder view reads a slab the index no longer has", devs, step, s)
				}
				if k, ok := class[s]; ok && h.class > k {
					ran["relocate"]++
				}
				if freed[runRef{off: h.off, class: h.class}] {
					ran["reuse"]++
				}
				if spills[s] == 2 {
					ran["respill"]++
				}
				spills[s] = 1
			}
		}
		want := []string{"exec", "discard", "fail", "shrink"}
		if devs == 4096 {
			want = append(want, "respill", "grow-spilled", "relocate", "reuse", "host-run")
		}
		for _, op := range want {
			if ran[op] == 0 {
				t.Errorf("devs %d: the walk never ran %q", devs, op)
			}
		}
	}
}

// scanDiscard is Discard as it was before it followed the tensor's copy
// chain: a residency probe on every device.
func scanDiscard(c *Cluster, id uint64) {
	s, ok := c.slotTable()[id]
	if !ok {
		return
	}
	for _, d := range c.devices {
		if i := c.index.find(s, d.id); i != 0 {
			d.drop(i)
		}
	}
	c.index.recs[s].onHost = false
}

// TestDiscardWalksHoldersOnly runs the same seeded contraction-and-discard
// stream on two 256-device clusters, one discarding along the copy chain
// and one through an every-device probe, and requires identical per-device
// stats, memory and makespan — with the live cluster audited along the way.
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
			if check && step%16 == 0 { // an audit is O(tensors + devices)
				checkAudit(t, c)
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

// TestBindTensors: a bound cluster answers slot-keyed and ID-keyed calls
// from one state, and builds its id→slot table only for the first ID-keyed
// call after a bind; an ID the table does not list gets a slot past it;
// binding the same table again changes nothing, a bare Reset keeps the
// numbering, and another table empties the cluster and drops the id→slot
// table until the next ID-keyed call.
func TestBindTensors(t *testing.T) {
	desc := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
	}
	c, err := NewCluster(MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	unbuilt := func(when string) {
		t.Helper()
		if c.slotsBuilt {
			t.Errorf("%s: the id→slot table is built", when)
		}
	}
	ids := []uint64{50, 20, 90, 60}
	c.BindTensors(ids)
	unbuilt("after a bind")
	a, b, out, dead := desc(50), desc(20), desc(90), desc(60)
	c.RegisterHostAt(0)
	c.RegisterHostAt(1)
	c.RegisterHostAt(3)
	if _, err := c.ExecContractionAt(2, &a, &b, &out, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContractionAt(1, &dead, &dead, &out, 3, 3, 2); err != nil {
		t.Fatal(err)
	}
	c.DiscardDeviceCopiesAt(0) // a: host copy only
	c.DiscardAt(3)             // dead: nowhere
	if c.HoldersAt(1).Empty() || !c.HostHoldsAt(1) || !c.HostHoldsAt(0) || c.HostHoldsAt(3) {
		t.Error("slot-keyed state after the discards is wrong")
	}
	checkAudit(t, c)
	unbuilt("after slot-keyed calls and an audit")
	// Every ID-keyed question gets the slot-keyed answer.
	agree := func(when string) {
		t.Helper()
		for slot, id := range ids {
			at, byID := c.HoldersAt(slot), c.HoldersMask(id)
			if !at.Equal(byID) || c.HostHoldsAt(slot) != c.HostHolds(id) {
				t.Errorf("%s: slot %d / tensor %d: HoldersAt %v host %v, HoldersMask %v host %v", when, slot, id,
					at.AppendTo(nil), c.HostHoldsAt(slot), byID.AppendTo(nil), c.HostHolds(id))
			}
			for dev := 0; dev < c.NumDevices(); dev++ {
				if c.Device(dev).Holds(id) != at.Has(dev) {
					t.Errorf("%s: device %d: Holds(%d) and HoldersAt(%d).Has disagree", when, dev, id, slot)
				}
			}
		}
	}
	agree("bound, run by slot")
	if !c.slotsBuilt {
		t.Error("an ID-keyed call did not build the id→slot table")
	}
	if !c.HoldersAt(2).Equal(DevSetOf(1, 2)) || !c.HoldersMask(60).Empty() || c.HostHolds(60) {
		t.Errorf("out on %v, want [1 2]; tensor 60 should be nowhere", c.HoldersAt(2).AppendTo(nil))
	}
	// The ID-keyed discards are the slot-keyed ones.
	c.Discard(90)
	c.DiscardDeviceCopies(20)
	if !c.HoldersAt(2).Empty() || c.HostHoldsAt(2) || !c.HoldersAt(1).Empty() || !c.HostHoldsAt(1) {
		t.Error("Discard / DiscardDeviceCopies by ID missed their slots")
	}
	agree("after discards by ID")

	c.RegisterHostTensor(b) // by ID: lands in slot 1
	if _, err := c.ExecContractionAt(2, &a, &b, &out, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	extra := desc(7)
	c.RegisterHostTensor(extra)
	if err := c.EnsureResident(3, extra); err != nil {
		t.Fatal(err)
	}
	if got := c.HoldersAt(4); !got.Equal(DevSetOf(3)) || !c.Device(3).Holds(7) {
		t.Errorf("unlisted tensor 7 is not in slot 4: %v", got.AppendTo(nil))
	}
	if len(ids) != 4 || ids[0] != 50 {
		t.Errorf("interning wrote through the bound table: %v", ids)
	}
	checkAudit(t, c)

	c.BindTensors(ids[:4]) // tensor 7 was appended to a copy: this is another table now
	unbuilt("after binding another table")
	if !c.HoldersMask(50).Empty() || c.HostHolds(7) {
		t.Error("binding a different table did not empty the cluster")
	}
	c.RegisterHostAt(1)
	c.BindTensors(ids)
	c.Reset()
	c.RegisterHostAt(1)
	if !c.HostHolds(20) || c.HostHolds(50) {
		t.Error("after re-binding the same table and a bare Reset, slot 1 is not tensor 20")
	}
	if c.BindTensors(ids); !c.HostHolds(20) || !c.slotsBuilt {
		t.Error("binding the bound table again emptied the cluster or dropped its id→slot table")
	}
	if c.BindTensors(append([]uint64(nil), ids...)); c.HostHoldsAt(1) {
		t.Error("binding another table of the same length did not empty the cluster")
	}
	checkAudit(t, c)
	// An empty table on a cluster that has numbered nothing is the bound one.
	empty, err := NewCluster(MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	empty.BindTensors(nil)
	checkAudit(t, empty)
}

// TestAuditChecksCopySizes: a block keeps its copy's size, not the tensor's
// descriptor, so Audit holds the sizes to each other. Each row corrupts one
// block and the device's memUsed with it, so the books still add up and
// only the size rule can see the fault: a copy of no bytes, and two copies
// of one tensor that differ in size.
func TestAuditChecksCopySizes(t *testing.T) {
	a := tensor.Desc{ID: 1, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
	b := tensor.Desc{ID: 2, Rank: tensor.RankMeson, Dim: 8, Batch: 2}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cluster)
		want    string // in the audit's error; "" for none
	}{
		{"intact", func(*Cluster) {}, ""},
		{"empty copy", func(c *Cluster) {
			i := c.index.find(c.slot(b.ID), 0)
			c.devices[0].memUsed -= c.index.blocks[i].size
			c.index.blocks[i].size = 0
		}, "misplaced or empty"},
		{"copies of two sizes", func(c *Cluster) {
			i := c.index.find(c.slot(a.ID), 1)
			c.index.blocks[i].size += 16
			c.devices[1].memUsed += 16
		}, "not"},
	} {
		c, err := NewCluster(MI100(2))
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterHostTensor(a)
		c.RegisterHostTensor(b)
		for _, f := range []struct {
			dev int
			d   tensor.Desc
		}{{0, a}, {1, a}, {0, b}} {
			if err := c.EnsureResident(f.dev, f.d); err != nil {
				t.Fatal(err)
			}
		}
		tc.corrupt(c)
		err = c.Audit()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: audit says %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
