// Package workload generates the synthetic many-body-correlation datasets
// used throughout the MICCO paper's evaluation, and defines the staged
// tensor-pair stream format that schedulers consume.
//
// A workload is a sequence of stages. Each stage holds two vectors of
// hadron-node tensors; pair i contracts vectorA[i] with vectorB[i], and all
// pairs within a stage are independent (they may run concurrently across
// GPUs), while stages execute sequentially — exactly the structure Redstar's
// dependency analysis produces (paper Fig. 1).
//
// The generator reproduces the paper's four data characteristics (Table I):
// tensor size (mode length), vector size (tensors per vector), repeated
// rate (fraction of slots referencing previously seen tensors), and data
// distribution (Uniform or Gaussian selection of which previous tensor a
// repeated slot references; Gaussian concentrates repeats on a hot set,
// inducing load imbalance).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"micco/internal/tensor"
)

// Distribution selects how repeated slots choose among previously seen
// tensors.
type Distribution int

const (
	// Uniform picks uniformly over all previously seen input tensors.
	Uniform Distribution = iota
	// Gaussian picks with a half-normal bias toward the earliest-created
	// tensors, concentrating reuse on a persistent hot set.
	Gaussian
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "Uniform"
	case Gaussian:
		return "Gaussian"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Biased reports whether the distribution concentrates repeats (the
// "biased or unbiased" data characteristic of Table I).
func (d Distribution) Biased() bool { return d == Gaussian }

// Pair is one hadron contraction: inputs A and B, producing Out.
type Pair struct {
	A, B tensor.Desc
	Out  tensor.Desc
	// slot holds the dense slots of A, B and Out in the workload's tensor
	// numbering (Workload.TensorIDs), written by the constructor.
	slot [3]int32
	// LastUse marks input tensors whose final consumer is this pair, so
	// engines may discard them afterwards. Index 0 refers to A, 1 to B. A
	// pair contracting a tensor with itself marks the A side only.
	LastUse [2]bool
}

// Slots returns the slots of A, B and Out in the numbering of the workload
// the pair belongs to (Workload.TensorIDs).
func (p *Pair) Slots() (a, b, out int) {
	return int(p.slot[0]), int(p.slot[1]), int(p.slot[2])
}

// Stage is one dependency level: VectorSize independent pairs drawn from
// two vectors of hadron nodes.
type Stage struct {
	Index int
	Pairs []Pair
	// RepeatRate is the measured fraction of the stage's 2*len(Pairs)
	// input slots that reference tensors already seen earlier in the
	// workload (the paper's dynamically computed "repeated rate").
	RepeatRate float64
}

// NumTensors returns the number of input tensor slots in the stage (the
// paper's numTensor: both vectors' entries).
func (s *Stage) NumTensors() int { return 2 * len(s.Pairs) }

// Workload is a complete staged contraction stream plus its provenance.
type Workload struct {
	Name   string
	Cfg    Config
	Stages []Stage
	// Inputs lists every distinct input tensor, in creation order. These
	// are host-resident before execution begins.
	Inputs []tensor.Desc
	// Outputs lists every output tensor descriptor.
	Outputs []tensor.Desc
	// ids is the tensor numbering (see TensorIDs), made by the constructor
	// in the pass that marks last uses.
	ids []uint64
}

// TensorIDs returns the workload's tensor numbering: the tensor set of a
// run is a closed world, so every tensor has a dense slot — its position in
// Inputs ++ Outputs — and ids[slot] is its ID. Engines index per-tensor
// state by slot instead of hashing IDs (Pair.Slots). Generate, FromStages
// and the JSON decode number a workload as they build it; a struct literal
// has no numbering, and TensorIDs returns nil (engines refuse it with
// ErrUnnumbered). The slice is shared by every caller: it must not be
// written, and the workload must not change once built.
func (w *Workload) TensorIDs() []uint64 { return w.ids }

// listed returns the IDs of Inputs ++ Outputs, by position.
func (w *Workload) listed() []uint64 {
	ids := make([]uint64, 0, len(w.Inputs)+len(w.Outputs))
	for _, d := range w.Inputs {
		ids = append(ids, d.ID)
	}
	for _, d := range w.Outputs {
		ids = append(ids, d.ID)
	}
	return ids
}

// eachPair calls f on every pair in stream order.
func (w *Workload) eachPair(f func(p *Pair)) {
	for si := range w.Stages {
		pairs := w.Stages[si].Pairs
		for pi := range pairs {
			f(&pairs[pi])
		}
	}
}

// finish completes a workload whose Inputs and Outputs are whole and
// distinct and whose pairs carry their slots (positions in Inputs ++
// Outputs): it records the numbering and marks the final consumer of every
// tensor (Pair.LastUse), enabling engines to discard dead tensors.
func (w *Workload) finish() {
	w.ids = w.listed()
	last := make([]*bool, len(w.ids))
	w.eachPair(func(p *Pair) {
		last[p.slot[0]] = &p.LastUse[0]
		if p.slot[1] != p.slot[0] {
			// A tensor contracted with itself has one last use, not two:
			// the A side carries it.
			last[p.slot[1]] = &p.LastUse[1]
		}
	})
	for _, flag := range last {
		if flag != nil {
			*flag = true
		}
	}
}

// Config parameterizes synthetic generation.
type Config struct {
	Seed       int64
	Stages     int          // number of sequential stages
	VectorSize int          // tensors per vector (pairs per stage)
	TensorDim  int          // mode length (the paper's tensor size)
	Batch      int          // batched instances per hadron node
	Rank       int          // tensor.RankMeson or tensor.RankBaryon
	RepeatRate float64      // target fraction of repeated input slots
	Dist       Distribution // repeat-selection distribution
	// ChainRate is the fraction of repeated slots that reference an
	// *intermediate* (an earlier stage's output) rather than an original
	// input — the paper notes both "original and intermediate data"
	// repeat in real correlator calculations. Zero keeps the classic
	// inputs-only repetition.
	ChainRate float64
}

// ErrInvalidConfig marks a Config that Validate rejects; the message names
// the field.
var ErrInvalidConfig = errors.New("invalid config")

// Validate reports whether the configuration is generatable; a rejection
// wraps ErrInvalidConfig.
func (c Config) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("workload: %w: Stages must be positive", ErrInvalidConfig)
	case c.VectorSize <= 0:
		return fmt.Errorf("workload: %w: VectorSize must be positive", ErrInvalidConfig)
	case c.TensorDim <= 0:
		return fmt.Errorf("workload: %w: TensorDim must be positive", ErrInvalidConfig)
	case c.Batch <= 0:
		return fmt.Errorf("workload: %w: Batch must be positive", ErrInvalidConfig)
	case c.Rank != tensor.RankMeson && c.Rank != tensor.RankBaryon:
		return fmt.Errorf("workload: %w: Rank must be 2 or 3", ErrInvalidConfig)
	case c.RepeatRate < 0 || c.RepeatRate > 1:
		return fmt.Errorf("workload: %w: RepeatRate must be in [0,1]", ErrInvalidConfig)
	case c.ChainRate < 0 || c.ChainRate > 1:
		return fmt.Errorf("workload: %w: ChainRate must be in [0,1]", ErrInvalidConfig)
	case c.Dist != Uniform && c.Dist != Gaussian:
		return fmt.Errorf("workload: %w: unknown distribution", ErrInvalidConfig)
	}
	return nil
}

// Generate builds a deterministic synthetic workload from cfg.
func Generate(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{
		Name: fmt.Sprintf("synth(v=%d,t=%d,r=%.0f%%,%s)",
			cfg.VectorSize, cfg.TensorDim, cfg.RepeatRate*100, cfg.Dist),
		Cfg: cfg,
	}
	var nextID uint64 = 1
	newInput := func() tensor.Desc {
		d := tensor.Desc{ID: nextID, Rank: cfg.Rank, Dim: cfg.TensorDim, Batch: cfg.Batch}
		nextID++
		w.Inputs = append(w.Inputs, d)
		return d
	}
	// pickSlot fills one input slot: repeat with probability RepeatRate
	// (when a pool exists), else create a fresh tensor. Repeats draw from
	// prior intermediates with probability ChainRate when any exist.
	// Returns the descriptor and whether it was a repeat.
	pickSlot := func(pool, chain []tensor.Desc) (tensor.Desc, bool) {
		if len(pool) > 0 && rng.Float64() < cfg.RepeatRate {
			if len(chain) > 0 && rng.Float64() < cfg.ChainRate {
				return chain[pickIndex(rng, cfg.Dist, len(chain))], true
			}
			return pool[pickIndex(rng, cfg.Dist, len(pool))], true
		}
		return newInput(), false
	}
	for s := 0; s < cfg.Stages; s++ {
		st := Stage{Index: s}
		repeats := 0
		// Snapshot the pools: repeats reference tensors from *previous*
		// data, per the paper ("selection of repeated data from the
		// previous data").
		pool := make([]tensor.Desc, len(w.Inputs))
		copy(pool, w.Inputs)
		chain := make([]tensor.Desc, len(w.Outputs))
		copy(chain, w.Outputs)
		for i := 0; i < cfg.VectorSize; i++ {
			a, ra := pickSlot(pool, chain)
			b, rb := pickSlot(pool, chain)
			if b.ID == a.ID && len(pool) > 1 {
				// Re-roll once to avoid degenerate self-pairs.
				b, rb = pickSlot(pool, chain)
			}
			if ra {
				repeats++
			}
			if rb {
				repeats++
			}
			out := tensor.Desc{ID: nextID, Rank: cfg.Rank, Dim: cfg.TensorDim, Batch: cfg.Batch}
			nextID++
			w.Outputs = append(w.Outputs, out)
			st.Pairs = append(st.Pairs, Pair{A: a, B: b, Out: out})
		}
		st.RepeatRate = float64(repeats) / float64(st.NumTensors())
		w.Stages = append(w.Stages, st)
	}
	// Generate hands out IDs 1, 2, ... to inputs and outputs alike, so a
	// slice turns an ID into its slot.
	slots := make([]int32, nextID)
	for s, d := range w.Inputs {
		slots[d.ID] = int32(s)
	}
	for s, d := range w.Outputs {
		slots[d.ID] = int32(len(w.Inputs) + s)
	}
	w.eachPair(func(p *Pair) {
		p.slot = [3]int32{slots[p.A.ID], slots[p.B.ID], slots[p.Out.ID]}
	})
	w.finish()
	return w, nil
}

// pickIndex selects an index in [0, n) under the given distribution.
func pickIndex(rng *rand.Rand, d Distribution, n int) int {
	if d == Gaussian {
		// Half-normal with sigma = n/4: ~95% of picks land in the first
		// half of the pool, concentrating reuse on the oldest tensors.
		sigma := float64(n) / 4
		idx := int(math.Abs(rng.NormFloat64()) * sigma)
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
	return rng.Intn(n)
}

// NumPairs returns the total number of contractions in the workload.
func (w *Workload) NumPairs() int {
	n := 0
	for i := range w.Stages {
		n += len(w.Stages[i].Pairs)
	}
	return n
}

// TotalFLOPs returns the total kernel work in the workload.
func (w *Workload) TotalFLOPs() int64 {
	var total int64
	for i := range w.Stages {
		for _, p := range w.Stages[i].Pairs {
			f, err := tensor.ContractFLOPs(p.A, p.B)
			if err == nil {
				total += f
			}
		}
	}
	return total
}

// UniqueInputBytes returns the footprint of all distinct input tensors.
func (w *Workload) UniqueInputBytes() int64 {
	var total int64
	for _, d := range w.Inputs {
		total += d.Bytes()
	}
	return total
}

// TotalUniqueBytes returns the footprint of all distinct tensors (inputs
// and outputs) — the working set used to size memory-oversubscription
// experiments.
func (w *Workload) TotalUniqueBytes() int64 {
	total := w.UniqueInputBytes()
	for _, d := range w.Outputs {
		total += d.Bytes()
	}
	return total
}

// MeasuredRepeatRate returns the workload-wide fraction of input slots that
// were repeats.
func (w *Workload) MeasuredRepeatRate() float64 {
	if len(w.Stages) == 0 {
		return 0
	}
	var repeats, slots float64
	for i := range w.Stages {
		st := &w.Stages[i]
		repeats += st.RepeatRate * float64(st.NumTensors())
		slots += float64(st.NumTensors())
	}
	return repeats / slots
}

// Features are the per-stage data characteristics fed to the reuse-bound
// regression model (paper Table I).
type Features struct {
	VectorSize float64 // tensors per vector
	TensorDim  float64 // mode length
	DistBias   float64 // 0 = unbiased (Uniform), 1 = biased (Gaussian)
	RepeatRate float64 // measured repeated rate of the stage
}

// AsSlice returns the features as a model input row, in the canonical
// order: VectorSize, TensorDim, DistBias, RepeatRate.
func (f Features) AsSlice() []float64 {
	return []float64{f.VectorSize, f.TensorDim, f.DistBias, f.RepeatRate}
}

// FeatureNames returns the column names matching Features.AsSlice.
func FeatureNames() []string {
	return []string{"VectorSize", "TensorSize", "DataDistribution", "RepeatedRate"}
}

// StageFeatures extracts the regression features of stage s. The vector
// size is the stage's own pair count, which for synthetic workloads equals
// the configured vector size and for front-end workloads "varies
// dynamically", as the paper notes for the real datasets.
func (w *Workload) StageFeatures(s int) Features {
	return Features{
		VectorSize: float64(len(w.Stages[s].Pairs)),
		TensorDim:  float64(w.Cfg.TensorDim),
		DistBias:   boolToFloat(w.Cfg.Dist.Biased()),
		RepeatRate: w.Stages[s].RepeatRate,
	}
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
