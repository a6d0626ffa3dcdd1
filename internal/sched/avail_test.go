package sched

import (
	"errors"
	"math/rand"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/tensor"
)

// devKeys is what the availability index reads of one device.
type devKeys struct {
	clock    float64
	mem, cap int64
	failed   bool
}

func keysOf(c *gpusim.Cluster) []devKeys {
	ks := make([]devKeys, c.NumDevices())
	for i := range ks {
		d := c.Device(i)
		ks[i] = devKeys{d.Clock(), d.MemUsed(), d.Capacity(), d.Failed()}
	}
	return ks
}

// scanNode recomputes a subtree's summary the way the scan path would have:
// one pass over the devices in [lo, hi).
func scanNode(c *Context, lim, lo, hi int) availNode {
	n := emptyAvailNode
	for dev := lo; dev < hi && dev < c.NumGPU; dev++ {
		if c.StageLoad[dev] >= lim || c.Down.Has(dev) {
			continue
		}
		d := c.Cluster.Device(dev)
		m := availMin{clock: d.Clock(), mem: d.MemUsed(), count: 1}
		for _, o := range []AvailOrder{ByCompute, ByMemory} {
			switch best := n.by[o]; {
			case o.less(m, best):
				n.by[o] = m
			case !o.less(best, m):
				n.by[o].count++
			}
		}
		if s := m.mem - d.Capacity(); s > n.slack {
			n.slack = s
		}
	}
	return n
}

// checkAvail asserts every node of the tree equals a scan of its device
// range, and that Select enumerates each order's tie set in ascending ID.
func checkAvail(t *testing.T, ix *AvailIndex, c *Context, lim int, step int, op string) {
	t.Helper()
	for i := 1; i < 2*ix.size; i++ {
		// Node i sits depth levels below the root: it covers size>>depth
		// leaves, starting at its leftmost leaf descendant.
		span, first := ix.size, i
		for j := i; j > 1; j >>= 1 {
			span >>= 1
		}
		for first < ix.size {
			first <<= 1
		}
		lo := first - ix.size
		if got, want := ix.nodes[i], scanNode(c, lim, lo, lo+span); got != want {
			t.Fatalf("step %d (%s): node %d over devices [%d,%d) = %+v, scan says %+v", step, op, i, lo, lo+span, got, want)
		}
	}
	for _, o := range []AvailOrder{ByCompute, ByMemory} {
		best := ix.nodes[1].by[o]
		k := 0
		for dev := 0; dev < c.NumGPU; dev++ {
			leaf := ix.nodes[ix.size+dev].by[o]
			if leaf.count == 1 && leaf.clock == best.clock && leaf.mem == best.mem {
				if got := ix.Select(o, k); got != dev {
					t.Fatalf("step %d (%s): Select(%d, %d) = %d, want %d", step, op, o, k, got, dev)
				}
				k++
			}
		}
		if k != ix.Ties(o) {
			t.Fatalf("step %d (%s): order %d has %d tied devices, Ties says %d", step, op, o, k, ix.Ties(o))
		}
	}
	// nextEligible from every start, padding leaves and past the end
	// included, is the scan's next device under the limit.
	want := -1
	for dev := ix.size; dev >= 0; dev-- {
		if dev < c.NumGPU && c.StageLoad[dev] < lim && !c.Down.Has(dev) {
			want = dev
		}
		if got := ix.nextEligible(dev); got != want {
			t.Fatalf("step %d (%s): nextEligible(%d) = %d, scan says %d", step, op, dev, got, want)
		}
	}
}

// TestAvailIndexInvariant walks a tracked Context and its cluster through a
// random sequence of everything that can move a device's keys —
// contractions under scarce memory (evictions, write-backs, host staging
// off a peer), discards, barriers, device loss and restore, pool shrinks,
// reset, load changes and limit changes — and after
// every step checks two things: the cluster's dirty set named every device
// whose Clock, MemUsed, Capacity or Failed changed, and the index, brought
// up to date from that set alone, equals a brute-force scan at every node.
// 96 devices puts real leaves on both sides of DevSet's word seam and pads
// the tree to 128. Run under -race via `make race`.
func TestAvailIndexInvariant(t *testing.T) {
	for _, devs := range []int{1, 5, 96} {
		cfg := gpusim.MI100(devs)
		desc := func(id uint64) tensor.Desc {
			return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
		}
		cfg.MemoryBytes = 6 * desc(1).Bytes()
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(7 + devs)))
		const nInputs = 24
		var ids []uint64
		register := func() {
			ids = ids[:0]
			for id := uint64(1); id <= nInputs; id++ {
				ids = append(ids, id)
				c.RegisterHostTensor(desc(id))
			}
		}
		register()
		nextOut := uint64(nInputs + 1)
		ctx := NewContext(c)
		lim := 4
		ix := newAvailIndex(devs)
		ctx.avail = ix
		alive := func() int {
			for {
				if dev := rng.Intn(devs); !c.DeviceFailed(dev) {
					return dev
				}
			}
		}
		for step := 0; step < 600; step++ {
			before := keysOf(c)
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "exec"
				a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				dev := alive()
				_, err := c.ExecContraction(dev, desc(a), desc(b), desc(nextOut))
				switch {
				case err == nil:
					ids = append(ids, nextOut)
					nextOut++
					ctx.AddLoad(dev, 2)
				case errors.Is(err, gpusim.ErrTensorUnavailable):
					// The operand died with a lost device; state may still
					// have moved (the other operand was staged).
				default:
					t.Fatalf("devs %d step %d: %v", devs, step, err)
				}
			case r < 55:
				op = "discard"
				id := ids[rng.Intn(len(ids))]
				if rng.Intn(2) == 0 {
					c.Discard(id)
					c.RegisterHostTensor(desc(id))
				} else {
					c.DiscardDeviceCopies(id)
				}
			case r < 62:
				op = "barrier"
				c.Barrier()
				ctx.ResetLoad()
			case r < 68 && devs > 1:
				op = "fail"
				dev := alive()
				if c.AliveMask().Count() > 1 {
					if err := c.FailDevice(dev); err != nil {
						t.Fatal(err)
					}
					ctx.Down = c.FailedMask()
				}
			case r < 74:
				op = "restore"
				if err := c.RestoreDevice(rng.Intn(devs)); err != nil {
					t.Fatal(err)
				}
				ctx.Down = c.FailedMask()
			case r < 80:
				op = "shrink"
				dev := rng.Intn(devs)
				capacity := cfg.MemoryBytes * int64(3+rng.Intn(4)) / 6 // never below one pair's three tensors
				if err := c.SetMemoryCapacity(dev, capacity); err != nil && !errors.Is(err, gpusim.ErrOutOfMemory) {
					t.Fatal(err)
				}
			case r < 84:
				op = "charge"
				if err := c.ChargeExternalTransfer(rng.Intn(devs), 1e-4); err != nil {
					t.Fatal(err)
				}
			case r < 92:
				op = "reset"
				c.Reset()
				register()
				nextOut = nInputs + 1
				ctx.Down = c.FailedMask()
				ctx.ResetLoad()
			case r < 96:
				op = "load"
				ctx.AddLoad(rng.Intn(devs), 2)
			default:
				op = "limit"
				lim = 2 + 2*rng.Intn(4)
			}
			// What Context.Avail does, with the drained set in hand to check.
			dirty, all, gen := c.DrainDirty(ix.gen)
			if !all {
				marked := make(map[int]bool, len(dirty))
				for _, dev := range dirty {
					marked[dev] = true
				}
				for dev, k := range keysOf(c) {
					if k != before[dev] && !marked[dev] {
						t.Fatalf("devs %d step %d (%s): device %d keys moved %+v -> %+v with the device not in the dirty set %v",
							devs, step, op, dev, before[dev], k, dirty)
					}
				}
			}
			ix.gen = gen
			ix.apply(ctx, lim, dirty, all)
			checkAvail(t, ix, ctx, lim, step, op)
		}
	}
}

// TestAvailLiftRestores pins Lift/Unlift: a lifted device competes under
// the substituted memory key in both orders and in the oversubscription
// probe, an ineligible device stays out, and Unlift leaves the tree exactly
// as it was.
func TestAvailLiftRestores(t *testing.T) {
	c, err := gpusim.NewCluster(gpusim.MI100(6))
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(c)
	ctx.AddLoad(4, 2)
	ix := ctx.Avail(2)
	snapshot := append([]availNode(nil), ix.nodes...)
	if got := ix.Ties(ByMemory); got != 5 {
		t.Fatalf("5 idle devices under the limit, Ties = %d", got)
	}
	ix.Lift(3, -64) // projects 64 bytes less than any other device
	ix.Lift(4, -64) // over the limit: not eligible, must stay out
	if ix.Ties(ByMemory) != 1 || ix.Select(ByMemory, 0) != 3 || ix.Select(ByCompute, 0) != 3 {
		t.Errorf("lifted device 3 should lead both orders alone: ties %d, picks %d/%d",
			ix.Ties(ByMemory), ix.Select(ByMemory, 0), ix.Select(ByCompute, 0))
	}
	capacity := c.Device(0).Capacity()
	if !ix.Oversubscribes(capacity+1) || ix.Oversubscribes(capacity) {
		t.Errorf("oversubscription probe should turn on the unlifted devices' need of %d+1", capacity)
	}
	ix.Unlift()
	for i := range snapshot {
		if ix.nodes[i] != snapshot[i] {
			t.Fatalf("node %d = %+v after Unlift, was %+v", i, ix.nodes[i], snapshot[i])
		}
	}
}
