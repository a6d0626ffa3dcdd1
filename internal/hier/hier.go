// Package hier implements a two-level scheduler for multi-node clusters
// (Config.NodeSize topologies): an inter-node placer shards the correlation
// graph across nodes, and a MICCO-style intra-node pass places each pair on
// a device within the chosen node. The split mirrors the cost hierarchy of
// the topology model — inter-node transfers ride a shared interconnect an
// order of magnitude slower than a node's host link or P2P fabric — so
// keeping a pair's operands inside one node matters more than which of the
// node's devices runs it.
//
// Level 1 (node choice) is Algorithm 1 one level up: prefer nodes already
// holding both operands, then either, then any node, each step gated by a
// node reuse bound against per-node stage balance; ties break toward the
// least-loaded, lowest-numbered node. Level 2 reruns the same candidate
// steps restricted to the node's device range under the per-device reuse
// bounds, picking the earliest-available candidate (projected memory, then
// lowest ID, as tie-breaks — deterministic, no RNG).
//
// Complexity per pair is O(holder nodes + log numNodes + nodeSize) on top
// of reading the two holder sets: level 1 looks at the nodes that hold an
// operand and, when none of them will do, at the root of a tournament tree
// over all nodes, never at the node list. Like the flat MICCO scheduler,
// the placement path performs zero allocations once its scratch reaches
// steady state.
// On single-node clusters level 1 degenerates to "node 0" and the
// scheduler behaves like a deterministic-tie-break MICCO.
package hier

import (
	"fmt"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Scheduler is the two-level node/device scheduler. Construct with New.
type Scheduler struct {
	name      string
	nodeBound int
	bounds    core.Bounds

	// Per-stage topology snapshot (refreshed in BeginStage).
	numNodes int
	nodeSize int
	numGPU   int
	// nodeLoad[n] is tensor slots assigned to node n this stage (+2 per
	// pair, matching Context.StageLoad units).
	nodeLoad []int
	// aStamp/bStamp mark nodes holding operand A/B of the current pair;
	// epoch stamping (compare against stamp) avoids an O(numNodes) clear
	// per Assign. holderN lists each such node once.
	aStamp, bStamp []uint64
	stamp          uint64
	holderN        []int
	// limitFull is a node's slot limit this stage — per-node balance plus
	// the node bound — and limitLast that of the last node, which is lower
	// when the node is partial.
	limitFull, limitLast int
	// tree is a min tournament over the nodes, keyed (at or over its limit,
	// nodeLoad, index): tree[numNodes+n] is leaf n, tree[i] the winner of
	// tree[2i] and tree[2i+1], tree[1] the node level 1 falls back to.
	tree []int32
	// candi is the reusable device-candidate queue.
	candi []int
}

// New returns a two-level scheduler: nodeBound is the node-level reuse
// bound (extra tensor slots a node may absorb past per-node balance in
// exchange for operand reuse), b the per-device reuse bounds of the
// intra-node pass.
func New(nodeBound int, b core.Bounds) *Scheduler {
	return &Scheduler{
		name:      fmt.Sprintf("Hier(%d)%s", nodeBound, b),
		nodeBound: nodeBound,
		bounds:    b,
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// BeginStage implements sched.Scheduler: it snapshots the topology and
// resets per-stage node loads. Scratch is grown once and reused, so
// steady-state stages allocate nothing.
func (s *Scheduler) BeginStage(ctx *sched.Context) {
	s.numGPU = ctx.NumGPU
	s.numNodes = ctx.Cluster.NumNodes()
	s.nodeSize = ctx.Cluster.Config().NodeSize
	if s.nodeSize <= 0 {
		s.nodeSize = s.numGPU
	}
	if cap(s.nodeLoad) < s.numNodes {
		s.nodeLoad = make([]int, s.numNodes)
		s.aStamp = make([]uint64, s.numNodes)
		s.bStamp = make([]uint64, s.numNodes)
		s.holderN = make([]int, 0, s.numNodes)
		s.tree = make([]int32, 2*s.numNodes)
	}
	s.nodeLoad = s.nodeLoad[:s.numNodes]
	for n := range s.nodeLoad {
		s.nodeLoad[n] = 0
	}
	if cap(s.candi) < s.nodeSize {
		s.candi = make([]int, 0, s.nodeSize)
	}
	s.seed(ctx.BalanceNum)
}

// seed sets the stage's node limits from its balance point and plays the
// tournament over the node loads as they stand.
func (s *Scheduler) seed(balanceNum int) {
	s.limitFull = balanceNum*s.nodeSize + 2*s.nodeBound
	s.limitLast = balanceNum*s.sizeOf(s.numNodes-1) + 2*s.nodeBound
	s.tree = s.tree[:2*s.numNodes]
	for n := 0; n < s.numNodes; n++ {
		s.tree[s.numNodes+n] = int32(n)
	}
	for i := s.numNodes - 1; i >= 1; i-- {
		s.tree[i] = s.winner(s.tree[2*i], s.tree[2*i+1])
	}
}

// underLimit reports whether node n can take another pair this stage.
func (s *Scheduler) underLimit(n int) bool {
	if n == s.numNodes-1 {
		return s.nodeLoad[n] < s.limitLast
	}
	return s.nodeLoad[n] < s.limitFull
}

// lighter reports whether node a beats node b on (nodeLoad, index).
func (s *Scheduler) lighter(a, b int) bool {
	return s.nodeLoad[a] < s.nodeLoad[b] || (s.nodeLoad[a] == s.nodeLoad[b] && a < b)
}

// winner is the tournament's comparison: a node under its limit beats one
// that is not, then the lighter node wins.
func (s *Scheduler) winner(a, b int32) int32 {
	ua, ub := s.underLimit(int(a)), s.underLimit(int(b))
	if ua != ub {
		if ua {
			return a
		}
		return b
	}
	if s.lighter(int(a), int(b)) {
		return a
	}
	return b
}

// addLoad charges one pair to node n and replays the matches on the path
// from its leaf to the root.
func (s *Scheduler) addLoad(n int) {
	s.nodeLoad[n] += 2
	for i := (s.numNodes + n) >> 1; i >= 1; i >>= 1 {
		s.tree[i] = s.winner(s.tree[2*i], s.tree[2*i+1])
	}
}

// sizeOf returns node n's device count (the last node may be partial).
func (s *Scheduler) sizeOf(n int) int {
	size := s.numGPU - n*s.nodeSize
	if size > s.nodeSize {
		size = s.nodeSize
	}
	return size
}

// Assign implements sched.Scheduler.
func (s *Scheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	ma := ctx.HoldersMask(p.A.ID)
	mb := ctx.HoldersMask(p.B.ID)

	// Mark and list the nodes holding each operand, skipping from a node's
	// first holder to the next node's devices: O(holder nodes) steps.
	s.stamp++
	s.holderN = s.holderN[:0]
	for it := ma.First(); it >= 0; {
		n := it / s.nodeSize
		s.aStamp[n] = s.stamp
		s.holderN = append(s.holderN, n)
		it = ma.NextFrom((n + 1) * s.nodeSize)
	}
	for it := mb.First(); it >= 0; {
		n := it / s.nodeSize
		s.bStamp[n] = s.stamp
		if s.aStamp[n] != s.stamp {
			s.holderN = append(s.holderN, n)
		}
		it = mb.NextFrom((n + 1) * s.nodeSize)
	}

	node := s.pickNode()
	dev := s.pickDevice(node, p, ctx, ma, mb)
	if dev < 0 {
		// The chosen node has no live device: global fallback to the
		// least-loaded live device anywhere.
		for it := 0; it < s.numGPU; it++ {
			if ctx.Down.Has(it) {
				continue
			}
			if dev < 0 || ctx.StageLoad[it] < ctx.StageLoad[dev] {
				dev = it
			}
		}
		if dev < 0 {
			dev = 0 // no live device: unreachable, the engine errors first
		}
	}
	s.addLoad(dev / s.nodeSize)
	if rec := ctx.Decision; rec != nil {
		rec.Policy = "two-level"
	}
	return dev
}

// pickNode is level 1: choose the node to place the current pair on.
// Candidate steps mirror Algorithm 1 — nodes holding both operands, then
// either, then all — each gated by the node reuse bound against per-node
// balance; among candidates the least-loaded (lowest index on ties) wins.
// Steps 1 and 2 can only pick a holder node, so they read holderN; step 3
// and, with every node past its limit (pathological bounds or heavy
// recovery re-placement), the least-loaded node outright are both the
// tournament's root.
func (s *Scheduler) pickNode() int {
	both, either := -1, -1
	for _, n := range s.holderN {
		if !s.underLimit(n) {
			continue
		}
		if either < 0 || s.lighter(n, either) {
			either = n
		}
		if s.aStamp[n] == s.stamp && s.bStamp[n] == s.stamp && (both < 0 || s.lighter(n, both)) {
			both = n
		}
	}
	if both >= 0 {
		return both
	}
	if either >= 0 {
		return either
	}
	return int(s.tree[1])
}

// pickDevice is level 2: a MICCO-style candidate pass restricted to the
// chosen node's device range [lo, hi). Steps I-III of Algorithm 1 run
// against the node's slice of the holder sets under the per-device reuse
// bounds; the final choice is the earliest-available candidate, breaking
// ties by projected memory and then lowest device ID (deterministic).
// Returns -1 when the node has no live device.
func (s *Scheduler) pickDevice(node int, p workload.Pair, ctx *sched.Context, ma, mb gpusim.DevSet) int {
	lo := node * s.nodeSize
	hi := lo + s.sizeOf(node)
	s.candi = s.candi[:0]
	// Assign's stamps say whether the node holds each operand at all, which
	// decides steps I and II without a pass over the cluster-wide sets.
	hasA, hasB := s.aStamp[node] == s.stamp, s.bStamp[node] == s.stamp

	// Step I: devices in the node holding both operands. Holder iteration
	// starts at lo and stops at the node edge, so cost tracks the node's
	// share of the holder set, not the cluster. Steps I-II need no down
	// filter: a failed device's residency drops the moment it fails.
	if hasA && hasB {
		lim := ctx.BalanceNum + s.bounds[0]
		for it := ma.NextFrom(lo); it >= 0 && it < hi; it = ma.NextFrom(it + 1) {
			if mb.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
	}

	// Step II: devices in the node holding either operand (A-holders first,
	// then B-only, ascending — the flat scheduler's candidate order).
	if len(s.candi) == 0 {
		lim := ctx.BalanceNum + s.bounds[1]
		if hasA {
			for it := ma.NextFrom(lo); it >= 0 && it < hi; it = ma.NextFrom(it + 1) {
				if ctx.StageLoad[it] < lim {
					s.candi = append(s.candi, it)
				}
			}
		}
		if hasB {
			for it := mb.NextFrom(lo); it >= 0 && it < hi; it = mb.NextFrom(it + 1) {
				if !ma.Has(it) && ctx.StageLoad[it] < lim {
					s.candi = append(s.candi, it)
				}
			}
		}
	}

	// Step III: any live device in the node under the third bound.
	if len(s.candi) == 0 {
		lim := ctx.BalanceNum + s.bounds[2]
		for it := lo; it < hi; it++ {
			if ctx.StageLoad[it] < lim && !ctx.Down.Has(it) {
				s.candi = append(s.candi, it)
			}
		}
	}

	// Defensive fallback within the node: least-loaded live device.
	if len(s.candi) == 0 {
		best := -1
		for it := lo; it < hi; it++ {
			if ctx.Down.Has(it) {
				continue
			}
			if best < 0 || ctx.StageLoad[it] < ctx.StageLoad[best] {
				best = it
			}
		}
		return best // -1 when the whole node is down
	}

	// Final choice: minimum device clock; ties by projected memory, then by
	// lowest ID (candidates are ascending and replacement is strict-less).
	best := s.candi[0]
	bestClock := ctx.Cluster.Device(best).Clock()
	for _, id := range s.candi[1:] {
		c := ctx.Cluster.Device(id).Clock()
		switch {
		case c < bestClock:
			best, bestClock = id, c
		case c == bestClock:
			if ctx.ProjectedMemMasked(id, p, ma, mb) < ctx.ProjectedMemMasked(best, p, ma, mb) {
				best = id
			}
		}
	}
	return best
}
