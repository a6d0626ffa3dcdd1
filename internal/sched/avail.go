package sched

import (
	"math"

	"micco/internal/obs"
)

// AvailOrder names one of Algorithm 2's two lexicographic orders.
type AvailOrder int

const (
	// ByCompute is the computation-centric order: least Clock, projected
	// memory as tie-break.
	ByCompute AvailOrder = iota
	// ByMemory is the memory-eviction-sensitive order: least projected
	// memory, Clock as tie-break.
	ByMemory
)

// availMin is one order's summary of a subtree: the least (clock, mem) key
// under that order among the subtree's eligible devices, and how many of
// them attain it. An empty subtree is {+Inf, MaxInt64, 0}, which loses
// every comparison against a real device.
type availMin struct {
	clock float64
	mem   int64
	count int32
}

// availNode summarizes the eligible devices of one subtree in both
// Algorithm 2 orders, plus the largest MemUsed-Capacity among them for the
// oversubscription test (MinInt64 when the subtree is empty).
type availNode struct {
	by    [2]availMin
	slack int64
}

var emptyAvailNode = availNode{
	by: [2]availMin{
		{clock: math.Inf(1), mem: math.MaxInt64},
		{clock: math.Inf(1), mem: math.MaxInt64},
	},
	slack: math.MinInt64,
}

// less reports whether a precedes b in order o.
func (o AvailOrder) less(a, b availMin) bool {
	if o == ByCompute {
		return a.clock < b.clock || (a.clock == b.clock && a.mem < b.mem)
	}
	return a.mem < b.mem || (a.mem == b.mem && a.clock < b.clock)
}

func (o AvailOrder) merge(l, r availMin) availMin {
	switch {
	case o.less(l, r):
		return l
	case o.less(r, l):
		return r
	}
	l.count += r.count
	return l
}

// AvailIndex is the device availability index behind Algorithm 1 step III
// and Algorithm 2: a tournament tree over the devices eligible under the
// step's reuse bound — {StageLoad < lim, not Down} — whose root answers, in
// O(1), what a scan of the whole cluster used to: is any eligible device
// projected to oversubscribe, what is the least (Clock, memory) or (memory,
// Clock) key, and how many devices tie on it. Select then descends to the
// k-th tied device in ascending ID order in O(log n), which is what keeps
// the random tie-break drawing from the same sequence, with the same
// meaning, as indexing into the scan's candidate list.
//
// Memory keys are stored as the device's MemUsed; a pair's projected memory
// on a device holding neither operand is MemUsed plus a per-pair constant,
// so order and ties over MemUsed are order and ties over projected memory.
// Devices that do hold an operand project less; the caller swaps their key
// for the query with Lift and puts it back with Unlift. (Algorithm 2
// compares projected bytes as float64; the integer comparison here agrees
// with it while byte counts stay below 2^53.)
//
// Obtain a current index with Context.Avail.
type AvailIndex struct {
	size  int // leaf count: NumGPU rounded up to a power of two
	lim   int
	built bool
	gen   uint64 // gpusim dirty-set generation of the last drain
	// nodes is the tree in heap order: node i has children 2i and 2i+1, the
	// leaf of device d is nodes[size+d].
	nodes []availNode
	// loadDirty lists devices whose eligibility flipped through AddLoad
	// since the last sync.
	loadDirty []int
	lifted    []liftedLeaf
}

type liftedLeaf struct {
	dev  int
	leaf availNode
}

func newAvailIndex(numGPU int) *AvailIndex {
	size := 1
	for size < numGPU {
		size <<= 1
	}
	ix := &AvailIndex{size: size, nodes: make([]availNode, 2*size)}
	for i := range ix.nodes {
		ix.nodes[i] = emptyAvailNode
	}
	return ix
}

// leafOf reads device dev's current keys from the cluster and context.
func (ix *AvailIndex) leafOf(c *Context, dev int) availNode {
	if c.StageLoad[dev] >= ix.lim || c.Down.Has(dev) {
		return emptyAvailNode
	}
	d := c.Cluster.Device(dev)
	m := availMin{clock: d.Clock(), mem: d.MemUsed(), count: 1}
	return availNode{by: [2]availMin{m, m}, slack: m.mem - d.Capacity()}
}

func (ix *AvailIndex) pull(i int) availNode {
	l, r := &ix.nodes[2*i], &ix.nodes[2*i+1]
	n := availNode{slack: l.slack}
	if r.slack > n.slack {
		n.slack = r.slack
	}
	n.by[ByCompute] = ByCompute.merge(l.by[ByCompute], r.by[ByCompute])
	n.by[ByMemory] = ByMemory.merge(l.by[ByMemory], r.by[ByMemory])
	return n
}

// setLeaf stores leaf for device dev and recomputes its ancestors, stopping
// at the first one whose summary does not change.
func (ix *AvailIndex) setLeaf(dev int, leaf availNode) {
	i := ix.size + dev
	if ix.nodes[i] == leaf {
		return
	}
	ix.nodes[i] = leaf
	for i >>= 1; i >= 1; i >>= 1 {
		n := ix.pull(i)
		if ix.nodes[i] == n {
			return
		}
		ix.nodes[i] = n
	}
}

func (ix *AvailIndex) rebuild(c *Context, lim int) {
	ix.lim = lim
	for dev := 0; dev < c.NumGPU; dev++ {
		ix.nodes[ix.size+dev] = ix.leafOf(c, dev)
	}
	for i := ix.size - 1; i >= 1; i-- {
		ix.nodes[i] = ix.pull(i)
	}
	ix.built = true
}

// apply brings the index up to date given the cluster's drained dirty
// devices: a rebuild when everything may have changed (or the index was
// never built, or the eligibility limit moved), otherwise one leaf refresh
// per device that changed in the simulator or crossed the limit.
func (ix *AvailIndex) apply(c *Context, lim int, devs []int, all bool) {
	if all || !ix.built || lim != ix.lim {
		ix.rebuild(c, lim)
	} else {
		for _, dev := range devs {
			ix.setLeaf(dev, ix.leafOf(c, dev))
		}
		for _, dev := range ix.loadDirty {
			ix.setLeaf(dev, ix.leafOf(c, dev))
		}
	}
	ix.loadDirty = ix.loadDirty[:0]
}

// Avail returns the availability index over the devices with
// StageLoad < lim that are not Down, current as of this call. On a Context
// from NewContext it is maintained incrementally: the devices the simulator
// touched since the last call are drained from the cluster's dirty set and
// refreshed, O(changed · log n), with a full O(n) rebuild after a barrier,
// reset or limit change. On a hand-built Context — whose StageLoad and Down
// can be written directly, unseen — every call rebuilds. No allocation
// after the first call.
func (c *Context) Avail(lim int) *AvailIndex {
	ix := c.avail
	if ix == nil {
		ix = newAvailIndex(c.NumGPU)
		c.avail = ix
	}
	if !c.tracked {
		ix.apply(c, lim, nil, true)
		return ix
	}
	devs, all, gen := c.Cluster.DrainDirty(ix.gen)
	ix.gen = gen
	ix.apply(c, lim, devs, all)
	return ix
}

// Ties returns how many eligible devices attain the least key in order o;
// zero means no device is eligible.
func (ix *AvailIndex) Ties(o AvailOrder) int { return int(ix.nodes[1].by[o].count) }

// Oversubscribes reports whether some eligible device's memory key plus
// need exceeds its capacity — Algorithm 2's oversubscription probe, with
// need the bytes the pair adds to a device holding neither operand.
func (ix *AvailIndex) Oversubscribes(need int64) bool { return ix.nodes[1].slack+need > 0 }

// Select returns the k-th (0-based, ascending device ID) of the devices
// tied on the least key in order o; k must be below Ties(o).
func (ix *AvailIndex) Select(o AvailOrder, k int) int {
	best := ix.nodes[1].by[o]
	i := 1
	for i < ix.size {
		i <<= 1
		if l := ix.nodes[i].by[o]; l.clock == best.clock && l.mem == best.mem {
			if k < int(l.count) {
				continue
			}
			k -= int(l.count)
		}
		i++
	}
	return i - ix.size
}

// AppendCandidates appends the first n eligible devices in ascending ID,
// each scored by its key in order o — its Clock, or its projected memory:
// the leaf's memory key plus need, the bytes the pair adds to a device
// holding neither operand (a lifted leaf's key already allows for what it
// holds) — and returns the extended slice. It visits only the leaves it
// appends and the non-empty subtrees between them, so listing a wide step
// III's candidates costs O(n log NumGPU), not a pass over the cluster.
func (ix *AvailIndex) AppendCandidates(buf []obs.CandidateScore, o AvailOrder, need int64, n int) []obs.CandidateScore {
	for dev := ix.nextEligible(0); dev >= 0 && n > 0; dev, n = ix.nextEligible(dev+1), n-1 {
		leaf := &ix.nodes[ix.size+dev].by[o]
		score := leaf.clock
		if o == ByMemory {
			score = float64(leaf.mem + need)
		}
		buf = append(buf, obs.CandidateScore{Device: dev, Score: score})
	}
	return buf
}

// nextEligible returns the least eligible device at or after dev, or -1
// when there is none: climbing from dev's leaf to the first non-empty
// subtree to its right and descending to that subtree's first eligible
// leaf, O(log n).
func (ix *AvailIndex) nextEligible(dev int) int {
	if dev >= ix.size {
		return -1
	}
	i := ix.size + dev
	for ix.nodes[i].by[ByCompute].count == 0 {
		for i&1 == 1 { // a right child (or the root): climb
			if i >>= 1; i == 0 {
				return -1
			}
		}
		i++ // a left child's right sibling
	}
	for i < ix.size {
		if i <<= 1; ix.nodes[i].by[ByCompute].count == 0 {
			i++
		}
	}
	return i - ix.size
}

// Lift replaces device dev's memory key with mem for the queries that
// follow, until Unlift; a device that is not eligible stays out. Algorithm 2
// uses it for the devices that already hold one of the pair's operands:
// their projected memory is not MemUsed plus the pair's constant, so they
// enter the query under the MemUsed that would make it so.
func (ix *AvailIndex) Lift(dev int, mem int64) {
	leaf := ix.nodes[ix.size+dev]
	if leaf.by[ByCompute].count == 0 {
		return
	}
	ix.lifted = append(ix.lifted, liftedLeaf{dev, leaf})
	leaf.slack += mem - leaf.by[ByCompute].mem
	leaf.by[ByCompute].mem = mem
	leaf.by[ByMemory].mem = mem
	ix.setLeaf(dev, leaf)
}

// Unlift restores every key replaced by Lift.
func (ix *AvailIndex) Unlift() {
	for _, l := range ix.lifted {
		ix.setLeaf(l.dev, l.leaf)
	}
	ix.lifted = ix.lifted[:0]
}
