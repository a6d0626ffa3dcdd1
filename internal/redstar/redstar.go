// Package redstar is the reproduction's stand-in for Jefferson Lab's
// Redstar correlation-function front end: it bundles correlator
// specifications (operator bases for the a1 and f0 meson systems of the
// paper's Table VI), expands them through Wick contraction into unique
// contraction graphs over many time slices, compiles a staged and
// deduplicated contraction plan, and exposes it as the tensor-pair
// workload the schedulers consume. It can also evaluate correlators
// numerically with real complex arithmetic.
package redstar

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"micco/internal/graph"
	"micco/internal/tensor"
	"micco/internal/wick"
	"micco/internal/workload"
)

// Construction is one interpolating-operator construction in a correlator
// basis: a single- or multi-particle operator set that is overall
// flavor-neutral.
type Construction struct {
	Name string
	Ops  []wick.Operator
}

// Correlator is a correlation-function specification: a basis of
// constructions correlated pairwise (every source construction against
// every sink construction) over a range of sink time slices.
type Correlator struct {
	Name          string
	Constructions []Construction
	// Momenta is the number of momentum projections per sink operator.
	Momenta int
	// TimeSlices is the number of sink times (sources sit at time 0).
	TimeSlices int
	// TensorDim and Batch shape the hadron-block tensors.
	TensorDim, Batch int
	// Rank selects the hadron-block tensor rank: tensor.RankMeson
	// (default when zero) for meson systems, tensor.RankBaryon for baryon
	// systems whose blocks are batched rank-3 tensors.
	Rank int
}

// blockRank resolves the configured rank, defaulting to meson blocks.
func (c *Correlator) blockRank() int {
	if c.Rank == 0 {
		return tensor.RankMeson
	}
	return c.Rank
}

// Build is the compiled form of a correlator.
type Build struct {
	Correlator *Correlator
	Workload   *workload.Workload
	Plan       *graph.Plan
	// NumGraphs counts unique contraction graphs across all construction
	// pairs and time slices.
	NumGraphs int
	// Blocks counts distinct hadron-block tensors.
	Blocks int
	// FinalsByTime maps each sink time to the final tensors of the graphs
	// evaluated at that time (one correlator term each).
	FinalsByTime map[int][]tensor.Desc
	// InputsByID resolves leaf tensors for numeric evaluation.
	InputsByID map[uint64]tensor.Desc
}

// conjugate flips every quark to the antiquark of the same flavor and vice
// versa, producing the sink-side (daggered) version of an operator.
func conjugate(op wick.Operator) wick.Operator {
	out := wick.Operator{Name: op.Name + "†"}
	for _, q := range op.Quarks {
		out.Quarks = append(out.Quarks, wick.Quark{Flavor: q.Flavor, Bar: !q.Bar})
	}
	return out
}

// Validate checks the correlator is buildable.
func (c *Correlator) Validate() error {
	_, err := c.specs()
	return err
}

// specs validates the correlator and returns the Wick specification of
// every (source, sink) construction pair, sources outermost — the order
// BuildPlan expands them in at each sink time.
func (c *Correlator) specs() ([]wick.Spec, error) {
	if len(c.Constructions) == 0 {
		return nil, fmt.Errorf("redstar: %s: no constructions", c.Name)
	}
	if c.TimeSlices <= 0 {
		return nil, fmt.Errorf("redstar: %s: TimeSlices must be positive", c.Name)
	}
	// A hadron block is keyed by operator name, so one name must mean one
	// quark content throughout the basis.
	type firstUse struct {
		construction string
		quarks       []wick.Quark
	}
	byName := map[string]firstUse{}
	for _, con := range c.Constructions {
		for _, op := range con.Ops {
			first, seen := byName[op.Name]
			if !seen {
				byName[op.Name] = firstUse{con.Name, op.Quarks}
			} else if !slices.Equal(first.quarks, op.Quarks) {
				return nil, fmt.Errorf("redstar: %s: operator %q has different quark content in constructions %s and %s",
					c.Name, op.Name, first.construction, con.Name)
			}
		}
	}
	sinks := make([][]wick.Operator, len(c.Constructions))
	for i, snk := range c.Constructions {
		for _, op := range snk.Ops {
			sinks[i] = append(sinks[i], conjugate(op))
		}
	}
	specs := make([]wick.Spec, 0, len(c.Constructions)*len(c.Constructions))
	for _, src := range c.Constructions {
		for i, snk := range c.Constructions {
			spec := wick.Spec{
				Name:      fmt.Sprintf("%s:%s->%s", c.Name, src.Name, snk.Name),
				Source:    src.Ops,
				Sink:      sinks[i],
				Momenta:   c.Momenta,
				TensorDim: c.TensorDim,
				Batch:     c.Batch,
			}
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("redstar: %s: %s x %s: %w", c.Name, src.Name, snk.Name, err)
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// BuildPlan expands, deduplicates and stages the correlator.
func (c *Correlator) BuildPlan() (*Build, error) {
	specs, err := c.specs()
	if err != nil {
		return nil, err
	}
	bt := wick.NewBlockTableWithRank(c.TensorDim, c.Batch, c.blockRank())
	var all []*graph.Graph
	// idEnd[t-1] is the first graph ID past sink time t: IDs are issued in
	// expansion order, so they rise with the sink time.
	idEnd := make([]int, 0, c.TimeSlices)
	var gid int
	for t := 1; t <= c.TimeSlices; t++ {
		for _, spec := range specs {
			gs, err := wick.Expand(spec, 0, t, bt, &gid)
			if err != nil {
				return nil, err
			}
			all = append(all, gs...)
		}
		idEnd = append(idEnd, gid)
	}
	// Expand deduplicates within one spec and time; this pass catches a
	// graph that two construction pairs both produce.
	all = graph.Dedup(all)
	plan, err := graph.BuildPlan(all, bt.NextID())
	if err != nil {
		return nil, err
	}
	b := &Build{
		Correlator:   c,
		Plan:         plan,
		NumGraphs:    len(all),
		Blocks:       bt.Len(),
		FinalsByTime: make(map[int][]tensor.Desc, c.TimeSlices),
		InputsByID:   make(map[uint64]tensor.Desc, len(plan.Inputs)),
	}
	// all is in ID order, so each sink time's finals are one run of it,
	// carved from a single backing array.
	finals := make([]tensor.Desc, len(all))
	for i, g := range all {
		finals[i] = plan.Finals[g.ID]
	}
	for t, lo := 1, 0; t <= c.TimeSlices; t++ {
		hi := lo
		for hi < len(all) && all[hi].ID < idEnd[t-1] {
			hi++
		}
		if hi > lo {
			b.FinalsByTime[t] = finals[lo:hi:hi]
		}
		lo = hi
	}
	for _, d := range plan.Inputs {
		b.InputsByID[d.ID] = d
	}
	// Convert plan stages to the scheduler workload format.
	stages := make([][]workload.Pair, 0, plan.NumStages())
	for _, ops := range plan.StageOps {
		pairs := make([]workload.Pair, 0, len(ops))
		for _, oi := range ops {
			op := plan.Ops[oi]
			pairs = append(pairs, workload.Pair{A: op.A, B: op.B, Out: op.Out})
		}
		stages = append(stages, pairs)
	}
	w, err := workload.FromStages(c.Name, stages, plan.Inputs)
	if err != nil {
		return nil, err
	}
	b.Workload = w
	return b, nil
}

// EvaluateNumeric executes the full plan with real complex128 arithmetic
// (random hadron blocks from seed) and returns the correlator value per
// sink time: the sum over that time's graphs of the traced final tensors.
// Intended for examples and validation on small correlators. It is
// EvaluateNumericMode in the exact kernel tier, whose results are pinned
// bit for bit by the golden tests.
func (b *Build) EvaluateNumeric(seed int64, workers int) (map[int]complex128, error) {
	return b.EvaluateNumericMode(seed, workers, tensor.ModeExact)
}

// stageOpsIndependent reports whether a plan stage's ops are mutually
// independent: unique outputs, and no op reading a tensor another op of
// the same stage produces. BuildPlan stages by dependency depth, so this
// holds for every plan it emits; the check keeps hand-altered plans
// correct by falling back to sequential execution.
func stageOpsIndependent(plan *graph.Plan, stage []int) bool {
	outs := make(map[uint64]struct{}, len(stage))
	for _, oi := range stage {
		op := plan.Ops[oi]
		if _, dup := outs[op.Out.ID]; dup {
			return false
		}
		outs[op.Out.ID] = struct{}{}
	}
	for _, oi := range stage {
		op := plan.Ops[oi]
		if _, ok := outs[op.A.ID]; ok {
			return false
		}
		if _, ok := outs[op.B.ID]; ok {
			return false
		}
	}
	return true
}

// EvaluateNumericMode is EvaluateNumeric with an explicit kernel tier:
// tensor.ModeExact reproduces the golden values bit for bit, while
// tensor.ModeFast permits the FMA/AVX-512 fused kernels, accurate to the
// ULP bound documented in DESIGN.md §12.
//
// Evaluation walks the plan stage by stage, executing each stage's ops as
// one tensor.ContractBatch: every unique hadron block or intermediate is
// packed into split-complex form once per stage, however many same-stage
// contractions read it. A free-list arena recycles every tensor's storage
// as soon as its last reader has run (liveness is exact, counted over the
// op stream, with each final pinned until its trace is taken), so peak
// memory is bounded by the live working set rather than the full plan.
// Neither batching nor recycling perturbs numerics: in exact mode the
// fused batch is bit-identical to op-at-a-time evaluation, and the kernel
// overwrites every destination element.
func (b *Build) EvaluateNumericMode(seed int64, workers int, mode tensor.KernelMode) (map[int]complex128, error) {
	rng := rand.New(rand.NewSource(seed))
	store := make(map[uint64]*tensor.Tensor, len(b.Plan.Inputs))
	for _, d := range b.Plan.Inputs {
		t, err := tensor.NewRandom(d, rng)
		if err != nil {
			return nil, err
		}
		store[d.ID] = t
	}
	// Exact read counts: operand uses in the op stream, plus one per final
	// for the trace. BuildPlan guarantees unique outputs, so a count
	// reaching zero really is the tensor's last use.
	reads := make(map[uint64]int, len(b.Plan.Ops))
	for _, op := range b.Plan.Ops {
		reads[op.A.ID]++
		reads[op.B.ID]++
	}
	for _, finals := range b.FinalsByTime {
		for _, fd := range finals {
			reads[fd.ID]++
		}
	}
	// Free list keyed by capacity; dead buffers feed later ContractInto
	// destinations of the same size.
	free := make(map[int][][]complex128)
	release := func(id uint64) {
		n, ok := reads[id]
		if !ok {
			return
		}
		n--
		reads[id] = n
		if n > 0 {
			return
		}
		if t := store[id]; t != nil && t.Data != nil {
			c := cap(t.Data)
			free[c] = append(free[c], t.Data[:0])
		}
		delete(store, id)
	}
	draw := func(elems int) []complex128 {
		if l := free[elems]; len(l) > 0 {
			buf := l[len(l)-1]
			free[elems] = l[:len(l)-1]
			return buf
		}
		return nil
	}
	var batch []tensor.BatchOp
	for si, stage := range b.Plan.StageOps {
		if !stageOpsIndependent(b.Plan, stage) {
			// Dependent stage (hand-altered plan): op-at-a-time, in order.
			for _, oi := range stage {
				op := b.Plan.Ops[oi]
				a, ok := store[op.A.ID]
				if !ok {
					return nil, fmt.Errorf("redstar: operand t%d missing", op.A.ID)
				}
				bb, ok := store[op.B.ID]
				if !ok {
					return nil, fmt.Errorf("redstar: operand t%d missing", op.B.ID)
				}
				out := &tensor.Tensor{Data: draw(int(op.Out.Elems()))}
				if err := tensor.ContractIntoMode(out, a, bb, op.Out.ID, workers, mode); err != nil {
					return nil, err
				}
				store[op.Out.ID] = out
				release(op.A.ID)
				release(op.B.ID)
			}
			continue
		}
		batch = batch[:0]
		for _, oi := range stage {
			op := b.Plan.Ops[oi]
			a, ok := store[op.A.ID]
			if !ok {
				return nil, fmt.Errorf("redstar: operand t%d missing", op.A.ID)
			}
			bb, ok := store[op.B.ID]
			if !ok {
				return nil, fmt.Errorf("redstar: operand t%d missing", op.B.ID)
			}
			batch = append(batch, tensor.BatchOp{
				Dst:   &tensor.Tensor{Data: draw(int(op.Out.Elems()))},
				A:     a,
				B:     bb,
				OutID: op.Out.ID,
			})
		}
		if err := tensor.ContractBatch(batch, workers, mode); err != nil {
			return nil, fmt.Errorf("redstar: stage %d: %w", si, err)
		}
		for k, oi := range stage {
			op := b.Plan.Ops[oi]
			store[op.Out.ID] = batch[k].Dst
			release(op.A.ID)
			release(op.B.ID)
		}
	}
	corr := make(map[int]complex128, len(b.FinalsByTime))
	times := make([]int, 0, len(b.FinalsByTime))
	for t := range b.FinalsByTime {
		times = append(times, t)
	}
	sort.Ints(times)
	for _, t := range times {
		var sum complex128
		for _, fd := range b.FinalsByTime[t] {
			ft, ok := store[fd.ID]
			if !ok {
				return nil, fmt.Errorf("redstar: final t%d missing", fd.ID)
			}
			tr, err := ft.Trace()
			if err != nil {
				return nil, err
			}
			sum += tr
			release(fd.ID)
		}
		corr[t] = sum
	}
	return corr, nil
}
