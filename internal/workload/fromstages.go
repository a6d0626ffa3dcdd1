package workload

import (
	"errors"
	"fmt"

	"micco/internal/tensor"
)

// ErrInvalidStages marks every pair stream FromStages refuses; the message
// names the stage and the tensor.
var ErrInvalidStages = errors.New("invalid stages")

// maxIDSpread bounds FromStages' ID table, one slot per ID up to the
// largest: that ID may be at most this many times the stream's tensor
// count. A front end numbers its tensors densely (redstar's leaves from 1,
// intermediates from the plan's nextID on), so only a sparse hand-built
// stream comes near it.
const maxIDSpread = 8

// FromStages builds a Workload from pre-staged pairs, as produced by the
// Redstar front end's dependency analysis (rather than the synthetic
// generator). inputs lists the distinct host-resident leaf tensors; pair
// operands must be either inputs or outputs of earlier pairs. Tensor IDs
// index a table, so the largest may be at most maxIDSpread times the
// number of tensors (inputs plus pairs). Every refusal wraps
// ErrInvalidStages.
//
// The workload adopts the stages: stage i's Pairs is stages[i] itself, not
// a copy. FromStages writes each pair's slots and recomputes its LastUse
// flags in place, whatever flags the caller set (also on the way to an
// error), so the caller must not change the pairs afterwards. Building a
// second workload from the same stages rewrites them to the same values.
//
// The per-stage repeated rate counts an operand slot as repeated when its
// tensor has already appeared in the workload — as an earlier operand or as
// an earlier output — since both represent reuse opportunities for the
// scheduler.
func FromStages(name string, stages [][]Pair, inputs []tensor.Desc) (*Workload, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("workload: %w: no stages", ErrInvalidStages)
	}
	numPairs, maxID := 0, uint64(0)
	for _, d := range inputs {
		maxID = max(maxID, d.ID)
	}
	for _, pairs := range stages {
		numPairs += len(pairs)
		for i := range pairs {
			maxID = max(maxID, pairs[i].A.ID, pairs[i].B.ID, pairs[i].Out.ID)
		}
	}
	tensors := len(inputs) + numPairs
	if maxID > maxIDSpread*uint64(tensors) {
		return nil, fmt.Errorf("workload: %w: largest tensor ID %d is over %d times the %d tensors",
			ErrInvalidStages, maxID, maxIDSpread, tensors)
	}
	// slots[id] is the slot of tensor id once it exists — inputs, then
	// earlier outputs, by position — and -1 before; appeared says, by
	// slot, whether it has turned up in the pair stream yet.
	slots := make([]int32, maxID+1)
	for i := range slots {
		slots[i] = -1
	}
	appeared := make([]bool, tensors)
	w := &Workload{
		Name:    name,
		Stages:  make([]Stage, 0, len(stages)),
		Inputs:  make([]tensor.Desc, 0, len(inputs)),
		Outputs: make([]tensor.Desc, 0, numPairs),
	}
	for _, d := range inputs {
		if !d.Valid() {
			return nil, fmt.Errorf("workload: %w: invalid input tensor %v", ErrInvalidStages, d)
		}
		if slots[d.ID] >= 0 {
			return nil, fmt.Errorf("workload: %w: duplicate input tensor %d", ErrInvalidStages, d.ID)
		}
		slots[d.ID] = int32(len(w.Inputs))
		w.Inputs = append(w.Inputs, d)
	}
	maxVec, dim := 0, 0
	for si, pairs := range stages {
		if len(pairs) == 0 {
			return nil, fmt.Errorf("workload: %w: stage %d is empty", ErrInvalidStages, si)
		}
		repeats := 0
		for pi := range pairs {
			p := &pairs[pi]
			p.LastUse = [2]bool{} // finish marks the true ones
			for i, id := range [2]uint64{p.A.ID, p.B.ID} {
				slot := slots[id]
				if slot < 0 {
					return nil, fmt.Errorf("workload: %w: stage %d operand t%d unknown", ErrInvalidStages, si, id)
				}
				if appeared[slot] {
					repeats++
				}
				appeared[slot], p.slot[i] = true, slot
			}
			if slots[p.Out.ID] >= 0 {
				return nil, fmt.Errorf("workload: %w: stage %d output t%d already exists", ErrInvalidStages, si, p.Out.ID)
			}
			p.slot[2] = int32(len(inputs) + len(w.Outputs))
			slots[p.Out.ID], appeared[p.slot[2]] = p.slot[2], true
			w.Outputs = append(w.Outputs, p.Out)
			if p.A.Dim > dim {
				dim = p.A.Dim
			}
		}
		st := Stage{Index: si, Pairs: pairs}
		st.RepeatRate = float64(repeats) / float64(st.NumTensors())
		if len(pairs) > maxVec {
			maxVec = len(pairs)
		}
		w.Stages = append(w.Stages, st)
	}
	// Record the workload-level characteristics the regression features
	// draw on. Real correlator data is biased (hot hadron blocks), so the
	// distribution is marked Gaussian.
	w.Cfg = Config{
		Stages:     len(stages),
		VectorSize: maxVec,
		TensorDim:  dim,
		Batch:      w.batchOf(),
		Rank:       w.rankOf(),
		Dist:       Gaussian,
	}
	w.finish()
	return w, nil
}

func (w *Workload) batchOf() int {
	if len(w.Inputs) > 0 {
		return w.Inputs[0].Batch
	}
	return 1
}

func (w *Workload) rankOf() int {
	if len(w.Inputs) > 0 {
		return w.Inputs[0].Rank
	}
	return tensor.RankMeson
}
