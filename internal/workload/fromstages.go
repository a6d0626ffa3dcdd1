package workload

import (
	"errors"
	"fmt"

	"micco/internal/tensor"
)

// FromStages builds a Workload from pre-staged pairs, as produced by the
// Redstar front end's dependency analysis (rather than the synthetic
// generator). inputs lists the distinct host-resident leaf tensors; pair
// operands must be either inputs or outputs of earlier pairs.
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
		return nil, errors.New("workload: no stages")
	}
	numPairs := 0
	for _, pairs := range stages {
		numPairs += len(pairs)
	}
	// slots numbers every tensor that exists so far — inputs, then earlier
	// outputs, by position — and appeared says, by slot, whether it has
	// turned up in the pair stream yet.
	slots := make(map[uint64]int32, len(inputs)+numPairs)
	appeared := make([]bool, len(inputs)+numPairs)
	w := &Workload{
		Name:    name,
		Stages:  make([]Stage, 0, len(stages)),
		Inputs:  make([]tensor.Desc, 0, len(inputs)),
		Outputs: make([]tensor.Desc, 0, numPairs),
	}
	for _, d := range inputs {
		if !d.Valid() {
			return nil, fmt.Errorf("workload: invalid input tensor %v", d)
		}
		if _, dup := slots[d.ID]; dup {
			return nil, fmt.Errorf("workload: duplicate input tensor %d", d.ID)
		}
		slots[d.ID] = int32(len(w.Inputs))
		w.Inputs = append(w.Inputs, d)
	}
	maxVec, dim := 0, 0
	for si, pairs := range stages {
		if len(pairs) == 0 {
			return nil, fmt.Errorf("workload: stage %d is empty", si)
		}
		repeats := 0
		for pi := range pairs {
			p := &pairs[pi]
			p.LastUse = [2]bool{} // finish marks the true ones
			for i, id := range [2]uint64{p.A.ID, p.B.ID} {
				slot, known := slots[id]
				if !known {
					return nil, fmt.Errorf("workload: stage %d operand t%d unknown", si, id)
				}
				if appeared[slot] {
					repeats++
				}
				appeared[slot], p.slot[i] = true, slot
			}
			if _, exists := slots[p.Out.ID]; exists {
				return nil, fmt.Errorf("workload: stage %d output t%d already exists", si, p.Out.ID)
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
