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
	// Every block of the deck has one shape; refuse it before expanding if
	// the workload would refuse it after.
	block := tensor.Desc{Rank: c.blockRank(), Dim: c.TensorDim, Batch: c.Batch}
	if n := workload.TensorBytes(block); n > workload.MaxTensorBytes {
		return nil, fmt.Errorf("redstar: %s: tensorDim %d and batch %d make rank-%d hadron blocks of %.4g bytes, over the %d-byte bound on one tensor",
			c.Name, c.TensorDim, c.Batch, block.Rank, n, int64(workload.MaxTensorBytes))
	}
	return specs, nil
}

// BuildPlan expands, deduplicates and stages the correlator. It streams:
// each sink time's graphs are expanded into one reused buffer, cleared of
// cross-spec duplicates, and added to the planner before the next time is
// expanded, so graph memory follows one time slice and not the deck. The
// planner numbers the intermediates once every block exists, from the block
// table's NextID, and its stage array becomes the workload's.
func (c *Correlator) BuildPlan() (*Build, error) {
	specs, err := c.specs()
	if err != nil {
		return nil, err
	}
	bt := wick.NewBlockTableWithRank(c.TensorDim, c.Batch, c.blockRank())
	// Expand deduplicates within one spec and time; the cross-spec pass
	// catches a graph that two construction pairs both produce, which only
	// specs with the same operator names on each side can. Such graphs share
	// their sink time (see namesRepeat), so deduplicating each time slice
	// alone removes exactly what a pass over the whole deck would.
	dedup := namesRepeat(specs)
	var (
		planner graph.Planner
		buf     wick.Buffer
		gid     int
	)
	perTime := make([]int, c.TimeSlices) // graphs kept at each sink time
	for t := 1; t <= c.TimeSlices; t++ {
		buf.Reset()
		for _, spec := range specs {
			if err := wick.ExpandInto(&buf, spec, 0, t, bt, &gid); err != nil {
				return nil, err
			}
		}
		gs := buf.Graphs()
		if dedup {
			gs = graph.Dedup(gs)
		}
		if t == 1 {
			// Every sink time stamps the same templates, so the first bounds
			// the deck's ops.
			planner.Reserve(graph.MaxOps(gs) * c.TimeSlices)
		}
		if err := planner.Add(gs); err != nil {
			return nil, err
		}
		perTime[t-1] = len(gs)
	}
	plan, err := planner.Finish(bt.NextID())
	if err != nil {
		return nil, err
	}
	b := &Build{
		Correlator:   c,
		Plan:         plan,
		NumGraphs:    len(plan.Finals),
		Blocks:       bt.Len(),
		FinalsByTime: make(map[int][]tensor.Desc, c.TimeSlices),
	}
	// plan.Finals follows the graphs as they were added, time by time.
	lo := 0
	for t, n := range perTime {
		if n > 0 {
			b.FinalsByTime[t+1] = plan.Finals[lo : lo+n : lo+n]
		}
		lo += n
	}
	if b.Workload, err = workload.FromStages(c.Name, plan.Stages, plan.Inputs); err != nil {
		return nil, err
	}
	return b, nil
}

// namesRepeat reports whether two of specs have the same multiset of source
// operator names and the same multiset of sink operator names. BuildPlan's
// cross-spec Dedup can only remove something when they do, and only between
// graphs of one sink time. A graph's nodes
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
