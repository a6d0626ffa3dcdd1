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
// least-loaded, lowest-numbered node. Level 2 runs flat MICCO's candidate
// steps (sched.Context.HolderCandidates) restricted to the node's device
// range under the per-device reuse bounds, picking the earliest-available candidate
// (projected memory, then candidate order, as tie-breaks — deterministic,
// no RNG).
//
// Complexity per pair is O(holder nodes + log numNodes + nodeSize) on top
// of reading the two holder sets: level 1 looks at the nodes that hold an
// operand and, when none of them will do, at the root of a tournament tree
// over all nodes, never at the node list. Like the flat MICCO scheduler,
// the placement path performs zero allocations once its scratch reaches
// steady state.
// On single-node clusters level 1 degenerates to "node 0", and level 2 is
// MICCO's steps I-III with a deterministic earliest-clock choice — not flat
// MICCO: it never switches to Algorithm 2's memory-eviction order, so under
// projected oversubscription the two place differently.
package hier

import (
	"fmt"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/obs"
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
		// least-loaded live device anywhere. Some device is live: the
		// engine ends the run when the last one is lost.
		dev = ctx.LeastLoaded(0, s.numGPU)
	}
	s.addLoad(dev / s.nodeSize)
	if rec := ctx.Decision; rec != nil {
		rec.Policy = obs.PolicyTwoLevel
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

// pickDevice is level 2: Algorithm 1 restricted to the chosen node's device
// range [lo, hi). Steps I and II are the flat scheduler's own
// (Context.HolderCandidates) under the per-device reuse bounds, step III takes
// any live device in the node under the third bound, and the final choice is
// the earliest-available candidate, breaking ties by projected memory and
// then candidate order (deterministic, no RNG). Unlike Algorithm 2 it never
// switches to the memory-eviction order under projected oversubscription.
// Returns -1 when the node has no live device.
func (s *Scheduler) pickDevice(node int, p workload.Pair, ctx *sched.Context, ma, mb gpusim.DevSet) int {
	lo := node * s.nodeSize
	hi := lo + s.sizeOf(node)
	// Assign's stamps say whether the node holds each operand at all; an
	// operand it does not hold enters steps I and II as the empty set, so a
	// node holding neither pays no pass over the cluster-wide sets.
	na, nb := ma, mb
	if s.aStamp[node] != s.stamp {
		na = gpusim.DevSet{}
	}
	if s.bStamp[node] != s.stamp {
		nb = gpusim.DevSet{}
	}
	s.candi, _ = ctx.HolderCandidates(s.candi[:0], na, nb, lo, hi, s.bounds[0], s.bounds[1])

	// Step III: any live device in the node under the third bound.
	if len(s.candi) == 0 {
		lim := ctx.BalanceNum + s.bounds[2]
		for it := lo; it < hi; it++ {
			if ctx.StageLoad[it] < lim && !ctx.Down.Has(it) {
				s.candi = append(s.candi, it)
			}
		}
	}
	if len(s.candi) == 0 {
		return ctx.LeastLoaded(lo, hi) // -1 when the whole node is down
	}

	// Final choice: minimum device clock, then minimum projected memory, then
	// the first survivor in candidate order (ascending ID, except that step
	// II lists A's holders before B's).
	sel := sched.FilterMin(s.candi, func(id int) float64 { return ctx.Cluster.Device(id).Clock() })
	return sched.FilterMin(sel, func(id int) float64 { return float64(ctx.ProjectedMemMasked(id, p, ma, mb)) })[0]
}
