// Package core implements the paper's primary contribution: the MICCO
// multi-GPU scheduler. It places each incoming tensor pair by its local
// reuse pattern (Fig. 4), read off the operands' holder sets, gates
// reuse-seeking placements by three reuse bounds (Table II), and assigns
// the pair via the heuristic of Algorithm 1 (candidate selection toggling
// data-centric, computation-centric policies) and Algorithm 2 (final
// choice, switching to the memory-eviction-sensitive policy under
// projected oversubscription).
package core

import (
	"fmt"
	"math/rand"

	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Bounds are the three reuse bounds of Table II: the tensor-count slack
// above perfect balance a GPU may absorb in exchange for reuse, indexed by
// the mapping that gates a placement (DecisionRecord.BoundIndex): 0 for
// twoRepeatedSame, 1 for twoRepeatedDiff and oneRepeated, 2 for twoNew.
// Larger values favour data reuse; zero forces strict balance.
type Bounds [3]int

// String implements fmt.Stringer.
func (b Bounds) String() string { return fmt.Sprintf("(%d,%d,%d)", b[0], b[1], b[2]) }

// BoundsPredictor produces per-stage reuse bounds from the stage's data
// characteristics. The autotune package provides the paper's pre-trained
// Random Forest predictor.
type BoundsPredictor interface {
	PredictBounds(f workload.Features) Bounds
}

// Scheduler is the MICCO heuristic scheduler. Construct with NewNaive
// (all bounds zero — the paper's MICCO-naive), NewFixed (constant bounds),
// or NewOptimal (bounds predicted per stage — the paper's MICCO-optimal).
type Scheduler struct {
	name      string
	fixed     Bounds
	predictor BoundsPredictor
	bounds    Bounds // active for the current stage
	rng       *rand.Rand
	// candi is the reusable candidate queue (the paper's candiQueue).
	candi []int
}

// NewNaive returns MICCO with all reuse bounds fixed at zero.
func NewNaive() *Scheduler {
	s := NewFixed(Bounds{})
	s.name = "MICCO-naive"
	return s
}

// NewFixed returns MICCO with constant reuse bounds b.
func NewFixed(b Bounds) *Scheduler {
	return &Scheduler{
		name:  fmt.Sprintf("MICCO%s", b),
		fixed: b,
		rng:   rand.New(rand.NewSource(1)),
	}
}

// NewOptimal returns MICCO with per-stage bounds from predictor p.
func NewOptimal(p BoundsPredictor) *Scheduler {
	return &Scheduler{
		name:      "MICCO-optimal",
		predictor: p,
		rng:       rand.New(rand.NewSource(1)),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// BeginStage implements sched.Scheduler: it refreshes the active reuse
// bounds, invoking the predictor's online inference when configured
// (step 2 of the paper's workflow, Fig. 6).
func (s *Scheduler) BeginStage(ctx *sched.Context) {
	if s.predictor != nil {
		s.bounds = s.predictor.PredictBounds(ctx.Features)
		return
	}
	s.bounds = s.fixed
}

// Assign implements sched.Scheduler with Algorithm 1: classify the pair's
// local reuse pattern, find the available GPUs under the pattern's reuse
// bound, then let Algorithm 2 pick the final device.
//
// No step looks at the whole cluster. Steps I and II read residency through
// the cluster's constant-time index — two mask probes answer every holder
// question — and fill candiQueue by iterating set bits, O(holders). Step III,
// where any GPU under reuse bound 3 qualifies, keeps no queue at all: it
// asks the context's availability index (sched.AvailIndex), which already
// summarizes that set in both Algorithm 2 orders, so the step costs
// O(log NumGPU) however many thousand devices qualify. All scratch space is
// reused across calls — the whole placement path performs zero allocations
// when observability is off. Candidate order matches the former per-device
// scan (ascending device ID; step II lists A-holders before B-only
// holders), so random tie-breaks draw identically to the scan-path
// reference kept in sched's crosscheck test.
func (s *Scheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	s.candi = s.candi[:0]
	ma := ctx.HoldersMask(p.A.ID)
	mb := ctx.HoldersMask(p.B.ID)
	// boundIdx records which step's reuse bound gated the candidate set
	// that survives to Algorithm 2; -1 means the defensive fallback fired.
	boundIdx := -1

	// Step I (Alg. 1 lines 4-7): twoRepeatedSame — GPUs holding both
	// tensors, if within reuse bound 1's allowed imbalance. Iterating ma
	// and filtering on mb.Has enumerates the intersection in ascending
	// device order without materializing it (DevSet intersection of wide
	// sets would allocate).
	if ma.Intersects(mb) {
		lim := s.bounds[0] + ctx.BalanceNum
		for it := ma.First(); it >= 0; it = ma.NextFrom(it + 1) {
			if mb.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 0
		}
	}

	// Step II (lines 8-14): twoRepeatedDiff / oneRepeated — GPUs holding
	// either tensor, under reuse bound 2. Also the fallback when every
	// both-holder was unavailable.
	if len(s.candi) == 0 && !(ma.Empty() && mb.Empty()) {
		lim := s.bounds[1] + ctx.BalanceNum
		for it := ma.First(); it >= 0; it = ma.NextFrom(it + 1) {
			if ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		for it := mb.First(); it >= 0; it = mb.NextFrom(it + 1) {
			if !ma.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 1
		}
	}

	// Step III (lines 15-18): twoNew, or nothing available above — any live
	// GPU under reuse bound 3, straight from the availability index. Steps
	// I and II need no down-device filter: a failed device's residency is
	// dropped the moment it fails, so it can never appear in a holder mask.
	if len(s.candi) == 0 {
		ix := ctx.Avail(s.bounds[2] + ctx.BalanceNum)
		if ix.Ties(sched.ByCompute) > 0 {
			s.recordBound(ctx, 2)
			return s.assignFromIndex(p, ctx, ix, ma, mb)
		}
	}

	// Defensive fallback: with non-negative bounds and BalanceNum =
	// ceil(numTensor/numGPU) at least one GPU is always below the step-III
	// limit mid-stage, but guard against pathological bound settings (and
	// stages whose recovery re-placements pushed every survivor past the
	// limit). Pick the least-loaded live device.
	if len(s.candi) == 0 {
		best := -1
		for it := 0; it < ctx.NumGPU; it++ {
			if ctx.Down.Has(it) {
				continue
			}
			if best < 0 || ctx.StageLoad[it] < ctx.StageLoad[best] {
				best = it
			}
		}
		if best < 0 {
			best = 0 // no live device: unreachable, the engine errors first
		}
		s.candi = append(s.candi, best)
	}

	s.recordBound(ctx, boundIdx)
	return s.assignFromQueue(p, ctx, ma, mb)
}

// recordBound publishes which reuse bound gated the candidate set (-1: the
// defensive fallback) into the in-flight decision record, if there is one.
func (s *Scheduler) recordBound(ctx *sched.Context, boundIdx int) {
	if rec := ctx.Decision; rec != nil {
		rec.BoundIndex = int32(boundIdx)
		if boundIdx >= 0 {
			rec.Bound = int32(s.bounds[boundIdx])
		}
	}
}

// assignFromIndex is Algorithm 2 over step III's candidate set — every
// device the availability index holds — without walking it. A device
// holding neither operand projects MemUsed plus the same need bytes, so the
// index's MemUsed summaries stand for projected memory; a holder projects
// less and is lifted into the index under its own figure for this query.
// Holders can only be eligible here when reuse bound 3 exceeds bound 2:
// step II just found each of them at or past bound 2's limit.
//
// The decision is the scan's, draw for draw: the same oversubscription
// verdict, the same tie set in the same ascending-ID order, one rng.Intn
// over its size when it has more than one member.
func (s *Scheduler) assignFromIndex(p workload.Pair, ctx *sched.Context, ix *sched.AvailIndex, ma, mb gpusim.DevSet) int {
	need := p.A.Bytes() + p.Out.Bytes()
	if p.B.ID != p.A.ID {
		need += p.B.Bytes()
	}
	if s.bounds[2] > s.bounds[1] {
		for it := ma.First(); it >= 0; it = ma.NextFrom(it + 1) {
			ix.Lift(it, ctx.ProjectedMemMasked(it, p, ma, mb)-need)
		}
		for it := mb.First(); it >= 0; it = mb.NextFrom(it + 1) {
			if !ma.Has(it) {
				ix.Lift(it, ctx.ProjectedMemMasked(it, p, ma, mb)-need)
			}
		}
	}
	order, policy := sched.ByCompute, obs.PolicyComputeCentric
	if ix.Oversubscribes(need) {
		order, policy = sched.ByMemory, obs.PolicyMemoryEviction
	}
	if rec := ctx.Decision; rec != nil {
		// The one place step III enumerates its candidates: the decision
		// record lists the first obs.MaxCandidates, in ascending ID, each
		// with its primary score — read off the index's eligible leaves, so
		// a watched placement stays sub-linear in the cluster's width.
		rec.Policy = policy
		rec.Candidates = ix.AppendCandidates(rec.Candidates, order, need, obs.MaxCandidates-len(rec.Candidates))
	}
	k := 0
	if ties := ix.Ties(order); ties > 1 {
		k = s.rng.Intn(ties)
	}
	dev := ix.Select(order, k)
	ix.Unlift()
	return dev
}

// assignFromQueue is Algorithm 2: detect projected oversubscription among
// the candidates; without it, pick least compute (memory as tie-break);
// with it, pick most free memory (compute as tie-break). Remaining ties
// break uniformly at random, as in the paper. The pair's holder masks ride
// along so memory projections need no further residency lookups.
func (s *Scheduler) assignFromQueue(p workload.Pair, ctx *sched.Context, ma, mb gpusim.DevSet) int {
	mem := func(id int) float64 { return float64(ctx.ProjectedMemMasked(id, p, ma, mb)) }
	evict := false
	for _, id := range s.candi {
		// Per-device capacity: a fault plan's mem-shrink can hold one
		// device's pool below the configured size.
		if ctx.ProjectedMemMasked(id, p, ma, mb) > ctx.Cluster.Device(id).Capacity() {
			evict = true
			break
		}
	}
	// "Least computation" is the candidate's live queue position: the
	// device clock realigns at every stage barrier and already prices the
	// kernels and memory operations of this stage's assignments, matching
	// the cost model of the paper's mapping analysis (Fig. 4).
	var primary, secondary func(id int) float64
	comp := func(id int) float64 { return ctx.Cluster.Device(id).Clock() }
	if evict {
		primary, secondary = mem, comp
	} else {
		primary, secondary = comp, mem
	}
	if rec := ctx.Decision; rec != nil {
		if evict {
			rec.Policy = obs.PolicyMemoryEviction
		} else {
			rec.Policy = obs.PolicyComputeCentric
		}
		for _, id := range s.candi {
			rec.Candidates = append(rec.Candidates, obs.CandidateScore{Device: id, Score: primary(id)})
		}
	}
	sel := filterMinInPlace(s.candi, primary)
	if len(sel) > 1 {
		sel = filterMinInPlace(sel, secondary)
	}
	if len(sel) == 1 {
		return sel[0]
	}
	return sel[s.rng.Intn(len(sel))]
}

// filterMinInPlace compacts ids down to the ones attaining the minimum of
// key, preserving order, writing into ids' own backing array (the write
// index never passes the read index, so no element is read after being
// overwritten). No allocation.
func filterMinInPlace(ids []int, key func(int) float64) []int {
	best := key(ids[0])
	out := ids[:1]
	for _, id := range ids[1:] {
		v := key(id)
		switch {
		case v < best:
			best = v
			out = append(ids[:0], id)
		case v == best:
			out = append(out, id)
		}
	}
	return out
}
