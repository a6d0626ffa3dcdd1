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
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"micco/internal/graph"
	"micco/internal/numeric"
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
	bt, all, idEnd, err := c.expand(specs)
	if err != nil {
		return nil, err
	}
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
	}
	// all is in ID order and plan.Finals[i] concludes all[i], so each sink
	// time's finals are one run of plan.Finals.
	for t, lo := 1, 0; t <= c.TimeSlices; t++ {
		hi := lo
		for hi < len(all) && all[hi].ID < idEnd[t-1] {
			hi++
		}
		if hi > lo {
			b.FinalsByTime[t] = plan.Finals[lo:hi:hi]
		}
		lo = hi
	}
	// Convert plan stages to the scheduler workload format, every stage
	// carved from one backing array that the workload adopts.
	pairs := make([]workload.Pair, len(plan.Ops))
	stages := make([][]workload.Pair, plan.NumStages())
	for si, ops := range plan.StageOps {
		stages[si], pairs = pairs[:len(ops):len(ops)], pairs[len(ops):]
		for i, oi := range ops {
			op := &plan.Ops[oi]
			stages[si][i] = workload.Pair{A: op.A, B: op.B, Out: op.Out}
		}
	}
	w, err := workload.FromStages(c.Name, stages, plan.Inputs)
	if err != nil {
		return nil, err
	}
	b.Workload = w
	return b, nil
}

// expand expands every spec at every sink time against one new block
// table, in ID order, and drops cross-spec duplicates. idEnd[t-1] is the
// first graph ID past sink time t: IDs are issued in expansion order, so
// they rise with the sink time.
func (c *Correlator) expand(specs []wick.Spec) (bt *wick.BlockTable, all []*graph.Graph, idEnd []int, err error) {
	bt = wick.NewBlockTableWithRank(c.TensorDim, c.Batch, c.blockRank())
	idEnd = make([]int, 0, c.TimeSlices)
	var gid int
	for t := 1; t <= c.TimeSlices; t++ {
		for _, spec := range specs {
			gs, err := wick.Expand(spec, 0, t, bt, &gid)
			if err != nil {
				return nil, nil, nil, err
			}
			all = append(all, gs...)
		}
		idEnd = append(idEnd, gid)
	}
	// Expand deduplicates within one spec and time; this pass catches a
	// graph that two construction pairs both produce, which only specs
	// with the same operator names on each side can.
	if namesRepeat(specs) {
		all = graph.Dedup(all)
	}
	return bt, all, idEnd, nil
}

// namesRepeat reports whether two of specs have the same multiset of source
// operator names and the same multiset of sink operator names. BuildPlan's
// cross-spec Dedup can only remove something when they do. A graph's nodes
// are the blocks (operator name, momentum, time) of its spec, sources at
// time 0 and sinks at its sink time, which is never 0. So two graphs with
// equal node multisets share a sink time, the same source names and the
// same sink names, and Expand has already deduplicated each spec at each
// time.
func namesRepeat(specs []wick.Spec) bool {
	seen := make(map[string]struct{}, len(specs))
	var key []byte
	var names []string
	for _, s := range specs {
		key = key[:0]
		for _, side := range [2][]wick.Operator{s.Source, s.Sink} {
			names = names[:0]
			for _, op := range side {
				names = append(names, op.Name)
			}
			slices.Sort(names)
			key = binary.AppendUvarint(key, uint64(len(names)))
			for _, n := range names {
				key = binary.AppendUvarint(key, uint64(len(n)))
				key = append(key, n...)
			}
		}
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
	}
	return false
}

// EvaluateNumeric executes the full plan with real complex128 arithmetic
// (random hadron blocks from seed) and returns the correlator value per
// sink time: the sum over that time's graphs of the traced final tensors.
// Intended for examples and validation on small correlators; its results
// are pinned bit for bit by the golden tests.
//
// Evaluation hands b.Workload — the plan's own stream — stage by stage to
// the numeric executor the scheduling engine uses (internal/numeric), on
// a pool of workers goroutines (<= 0 selects GOMAXPROCS): each stage runs
// as dependency levels of batches, every tensor's storage is recycled
// once its last reader has run, and the finals are pinned until their
// traces are taken. None of that perturbs numerics: a batch is
// bit-identical to op-at-a-time evaluation, and the kernel overwrites
// every destination element.
func (b *Build) EvaluateNumeric(seed int64, workers int) (map[int]complex128, error) {
	// The finals' slots, resolved once through a table by ID over the
	// workload's numbering (FromStages bounds the largest ID).
	ids := b.Workload.TensorIDs()
	if ids == nil {
		return nil, fmt.Errorf("redstar: %w", workload.ErrUnnumbered)
	}
	slot := make([]int32, slices.Max(ids)+1)
	for s, id := range ids {
		slot[id] = int32(s)
	}
	var finals []int
	for _, fds := range b.FinalsByTime {
		for _, fd := range fds {
			finals = append(finals, int(slot[fd.ID]))
		}
	}
	x, err := numeric.New(b.Workload, numeric.Config{Seed: seed, Workers: workers, Pin: finals})
	if err != nil {
		return nil, fmt.Errorf("redstar: %w", err)
	}
	defer x.Close()
	for si, st := range b.Workload.Stages {
		// The kept signature supplies no context.
		if err := x.RunStage(context.TODO(), st.Pairs); err != nil {
			return nil, fmt.Errorf("redstar: stage %d: %w", si, err)
		}
	}
	corr := make(map[int]complex128, len(b.FinalsByTime))
	for t, fds := range b.FinalsByTime {
		var sum complex128
		for _, fd := range fds {
			ft, ok := x.Tensor(int(slot[fd.ID]))
			if !ok {
				return nil, fmt.Errorf("redstar: final t%d missing", fd.ID)
			}
			tr, err := ft.Trace()
			if err != nil {
				return nil, err
			}
			sum += tr
		}
		corr[t] = sum
	}
	return corr, nil
}

// EvaluateNumericMode is EvaluateNumeric; mode selects nothing. It is a
// shim for bench/, which may not be edited outside a [benchmark] PR and
// calls this name for its redstar.evaluate_numeric_ms probe; the change
// that deletes tensor/bench_shim.go points the probe at EvaluateNumeric
// and deletes this with it.
func (b *Build) EvaluateNumericMode(seed int64, workers int, _ tensor.KernelMode) (map[int]complex128, error) {
	return b.EvaluateNumeric(seed, workers)
}
