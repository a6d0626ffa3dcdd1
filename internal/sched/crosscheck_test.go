package sched_test

// Cross-check property test for the constant-time residency index: every
// scheduler's mask-based placement path must be bit-identical — same
// assignments, pattern counts, decision records and numeric fingerprints —
// to the pre-index scan path, retained below as test-only reference
// implementations (verbatim ports of the former slice/map-probe code).

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// refMICCO is the scan-path MICCO scheduler exactly as it existed before
// the residency index: holder slices from Context.Holders, linear
// contains/appendUnique candidate filling, and an allocating filterMin.
// Its rng seeding matches core.NewFixed so tie-breaks draw identically.
// It is also the oracle for the availability index (availcheck_test.go):
// step III and Algorithm 2 here walk every device, every time. The one
// additions since the port are the Down filter in step III and the
// fallback, which fault-free runs never exercise (Down is then empty), and
// the decision record's cap at obs.MaxCandidates. wideStepIII counts the
// step-III decisions whose candidate set had 128 devices or more;
// misclassified counts the in-flight decision records whose reuse pattern
// (the engine's sched.ClassifyMasks) disagrees with refClassify's.
type refMICCO struct {
	bounds        core.Bounds
	rng           *rand.Rand
	candi         []int
	wideStepIII   int64
	misclassified int64
}

func newRefMICCO(b core.Bounds) *refMICCO {
	return &refMICCO{bounds: b, rng: rand.New(rand.NewSource(1))}
}

func (s *refMICCO) Name() string { return "MICCO" + s.bounds.String() }

func (s *refMICCO) BeginStage(*sched.Context) {}

func refClassify(h1, h2 []int) core.ReusePattern {
	switch {
	case len(h1) > 0 && len(h2) > 0:
		if refIntersects(h1, h2) {
			return core.TwoRepeatedSame
		}
		return core.TwoRepeatedDiff
	case len(h1) > 0 || len(h2) > 0:
		return core.OneRepeated
	default:
		return core.TwoNew
	}
}

func refIntersects(h1, h2 []int) bool {
	for _, a := range h1 {
		if refContains(h2, a) {
			return true
		}
	}
	return false
}

func refContains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func refAppendUnique(xs []int, v int) []int {
	if refContains(xs, v) {
		return xs
	}
	return append(xs, v)
}

func refFilterMin(ids []int, key func(int) float64) []int {
	best := key(ids[0])
	out := ids[:1:1]
	for _, id := range ids[1:] {
		v := key(id)
		switch {
		case v < best:
			best = v
			out = append(out[:0:0], id)
		case v == best:
			out = append(out, id)
		}
	}
	return out
}

func (s *refMICCO) Assign(p workload.Pair, ctx *sched.Context) int {
	s.candi = s.candi[:0]
	h1 := ctx.HoldersMask(p.A.ID).AppendTo(nil)
	h2 := ctx.HoldersMask(p.B.ID).AppendTo(nil)
	if rec := ctx.Decision; rec != nil && rec.Pattern != obs.ReusePattern(refClassify(h1, h2)) {
		s.misclassified++
	}
	limit := func(bound int) int { return s.bounds[bound] + ctx.BalanceNum }
	boundIdx := -1

	// Step I: twoRepeatedSame — GPUs holding both tensors.
	if refIntersects(h1, h2) {
		lim := limit(0)
		for _, it := range h1 {
			if refContains(h2, it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 0
		}
	}

	// Step II: twoRepeatedDiff / oneRepeated — GPUs holding either tensor.
	if len(s.candi) == 0 && (len(h1) > 0 || len(h2) > 0) {
		lim := limit(1)
		for _, it := range h1 {
			if ctx.StageLoad[it] < lim {
				s.candi = refAppendUnique(s.candi, it)
			}
		}
		for _, it := range h2 {
			if ctx.StageLoad[it] < lim {
				s.candi = refAppendUnique(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 1
		}
	}

	// Step III: twoNew or nothing available above — any GPU under bound 3.
	if len(s.candi) == 0 {
		lim := limit(2)
		for it := 0; it < ctx.NumGPU; it++ {
			if ctx.StageLoad[it] < lim && !ctx.Down.Has(it) {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 2
		}
		if len(s.candi) >= 128 {
			s.wideStepIII++
		}
	}

	// Defensive fallback: least-loaded live GPU.
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
		s.candi = append(s.candi, best)
	}

	if rec := ctx.Decision; rec != nil {
		rec.BoundIndex = int32(boundIdx)
		if boundIdx >= 0 {
			rec.Bound = int32(s.bounds[boundIdx])
		}
	}
	return s.assignFromQueue(p, ctx)
}

func (s *refMICCO) assignFromQueue(p workload.Pair, ctx *sched.Context) int {
	evict := false
	for _, id := range s.candi {
		if ctx.ProjectedMem(id, p) > ctx.Cluster.Device(id).Capacity() {
			evict = true
			break
		}
	}
	var primary, secondary func(id int) float64
	comp := func(id int) float64 { return ctx.Cluster.Device(id).Clock() }
	mem := func(id int) float64 { return float64(ctx.ProjectedMem(id, p)) }
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
		for _, id := range s.candi[:min(len(s.candi), obs.MaxCandidates)] {
			rec.Candidates = append(rec.Candidates, obs.CandidateScore{Device: id, Score: primary(id)})
		}
	}
	sel := refFilterMin(s.candi, primary)
	if len(sel) > 1 {
		sel = refFilterMin(sel, secondary)
	}
	if len(sel) == 1 {
		return sel[0]
	}
	return sel[s.rng.Intn(len(sel))]
}

// refLocalityOnly is the scan-path LocalityOnly baseline: two residency
// map probes per device instead of the index's two mask probes per pair.
type refLocalityOnly struct{}

func (refLocalityOnly) Name() string              { return "LocalityOnly" }
func (refLocalityOnly) BeginStage(*sched.Context) {}

func (refLocalityOnly) Assign(p workload.Pair, ctx *sched.Context) int {
	best, bestBytes := -1, int64(-1)
	var bestClock float64
	for i := 0; i < ctx.NumGPU; i++ {
		d := ctx.Cluster.Device(i)
		var res int64
		if d.Holds(p.A.ID) {
			res += p.A.Bytes()
		}
		if d.Holds(p.B.ID) && p.B.ID != p.A.ID {
			res += p.B.Bytes()
		}
		if res > bestBytes || (res == bestBytes && d.Clock() < bestClock) {
			best, bestBytes, bestClock = i, res, d.Clock()
		}
		if rec := ctx.Decision; rec != nil {
			rec.Candidates = append(rec.Candidates,
				obs.CandidateScore{Device: i, Score: -float64(res)})
		}
	}
	if rec := ctx.Decision; rec != nil {
		rec.Policy = obs.PolicyLocalityOnly
	}
	return best
}

// crossCase pairs a live scheduler with its scan-path reference. Groute
// and RoundRobin never consulted residency, so their reference is a second
// fresh instance of the live code (a pure determinism check that keeps the
// property covering every scheduler in the repo).
type crossCase struct {
	name string
	live func() sched.Scheduler
	ref  func() sched.Scheduler
}

func crossCases() []crossCase {
	return []crossCase{
		{"MICCO(0,0,0)",
			func() sched.Scheduler { return core.NewFixed(core.Bounds{}) },
			func() sched.Scheduler { return newRefMICCO(core.Bounds{}) }},
		{"MICCO(0,2,0)",
			func() sched.Scheduler { return core.NewFixed(core.Bounds{0, 2, 0}) },
			func() sched.Scheduler { return newRefMICCO(core.Bounds{0, 2, 0}) }},
		{"MICCO(1,2,3)",
			func() sched.Scheduler { return core.NewFixed(core.Bounds{1, 2, 3}) },
			func() sched.Scheduler { return newRefMICCO(core.Bounds{1, 2, 3}) }},
		{"Groute",
			func() sched.Scheduler { return baseline.NewGroute() },
			func() sched.Scheduler { return baseline.NewGroute() }},
		{"RoundRobin",
			func() sched.Scheduler { return baseline.NewRoundRobin() },
			func() sched.Scheduler { return baseline.NewRoundRobin() }},
		{"LocalityOnly",
			func() sched.Scheduler { return baseline.NewLocalityOnly() },
			func() sched.Scheduler { return refLocalityOnly{} }},
	}
}

func crossWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: seed, Stages: 3, VectorSize: 12, TensorDim: 6,
		Batch: 1, Rank: tensor.RankMeson, RepeatRate: 0.6,
		Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func crossRun(t *testing.T, w *workload.Workload, s sched.Scheduler, mem int64) (*sched.Result, []obs.DecisionRecord) {
	t.Helper()
	cfg := gpusim.MI100(4)
	if mem > 0 {
		cfg.MemoryBytes = mem
	}
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res, err := sched.Run(context.Background(), w, s, c, sched.Options{
		RecordAssignments: true,
		Numeric:           true,
		NumericSeed:       7,
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Decisions()
}

// TestMaskPathMatchesScanPathReference is the cross-check property of the
// residency-index change: across seeded random workloads, every scheduler,
// and both ample and scarce device memory (the latter forcing the
// memory-eviction policy and host staging), the mask path reproduces the
// scan path bit for bit.
func TestMaskPathMatchesScanPathReference(t *testing.T) {
	seeds := []int64{11, 23, 47}
	var evictionRuns int64
	for _, seed := range seeds {
		w := crossWorkload(t, seed)
		// Scarce memory: a handful of operand-sized tensors per device, so
		// placements run into oversubscription and evictions.
		scarce := 5 * w.Inputs[0].Bytes()
		for _, mem := range []int64{0, scarce} {
			for _, tc := range crossCases() {
				live := tc.live()
				ref := tc.ref()
				lr, ld := crossRun(t, w, live, mem)
				rr, rd := crossRun(t, w, ref, mem)

				if !reflect.DeepEqual(lr.Assignments, rr.Assignments) {
					t.Errorf("seed %d mem %d %s: assignments diverge from scan-path reference",
						seed, mem, tc.name)
					continue
				}
				if lr.NumericFingerprint != rr.NumericFingerprint {
					t.Errorf("seed %d mem %d %s: fingerprint %g != reference %g",
						seed, mem, tc.name, lr.NumericFingerprint, rr.NumericFingerprint)
				}
				if lr.Makespan != rr.Makespan {
					t.Errorf("seed %d mem %d %s: makespan %g != reference %g",
						seed, mem, tc.name, lr.Makespan, rr.Makespan)
				}
				if lr.Total != rr.Total {
					t.Errorf("seed %d mem %d %s: device stats diverge:\n %+v\n %+v",
						seed, mem, tc.name, lr.Total, rr.Total)
				}
				if len(ld) != len(rd) {
					t.Fatalf("seed %d mem %d %s: %d decisions vs %d in reference",
						seed, mem, tc.name, len(ld), len(rd))
				}
				for i := range ld {
					if !reflect.DeepEqual(ld[i], rd[i]) {
						t.Errorf("seed %d mem %d %s: decision %d diverges:\n %+v\n %+v",
							seed, mem, tc.name, i, ld[i], rd[i])
						break
					}
					if ld[i].Policy == obs.PolicyMemoryEviction {
						evictionRuns++
					}
				}
				if rm, ok := ref.(*refMICCO); ok && rm.misclassified != 0 {
					t.Errorf("seed %d mem %d %s: %d records' reuse pattern differs from the reference classification",
						seed, mem, tc.name, rm.misclassified)
				}
			}
		}
	}
	// The property is vacuous for Algorithm 2's memory-eviction branch
	// unless some run actually triggered it.
	if evictionRuns == 0 {
		t.Error("no run exercised the memory-eviction policy; shrink the scarce-memory configuration")
	}
}
