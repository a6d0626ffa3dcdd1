package gpusim

import (
	"errors"
	"math/rand"
	"testing"

	"micco/internal/tensor"
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
	for id, m := range c.index.mask {
		if m.Empty() {
			t.Fatalf("index keeps empty set for tensor %d", id)
		}
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
			d.drop(b)
		}
	}
	delete(c.hostResident, id)
	if c.hostNodes != nil {
		delete(c.hostNodes, id)
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
