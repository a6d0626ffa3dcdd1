package workload

import (
	"encoding/json"
	"errors"
	"fmt"

	"micco/internal/tensor"
)

// ErrInvalidStages marks every pair stream FromStages or the JSON decode
// refuses; the message names the stage and the tensor.
var ErrInvalidStages = errors.New("invalid stages")

// ErrUnnumbered marks a workload that no constructor made — a struct
// literal — and so carries no tensor numbering; the engines refuse it.
var ErrUnnumbered = errors.New("workload not numbered: build it with Generate, FromStages or a JSON decode")

// maxIDSpread bounds FromStages' ID table, one slot per ID up to the
// largest: that ID may be at most this many times the stream's tensor
// count. A front end numbers its tensors densely (redstar's leaves from 1,
// intermediates from the plan's nextID on), so only a sparse hand-written
// stream or file comes near it.
const maxIDSpread = 8

// maxTensorBytes bounds one tensor of a workload: far past any device the
// simulator models, and small enough that no sum over a stream's tensors
// overflows an int64.
const maxTensorBytes = 1 << 40

// validDesc reports whether d is a valid descriptor (tensor.Desc.Valid) of
// at most maxTensorBytes, sized in floating point so nothing overflows.
func validDesc(d tensor.Desc) bool {
	n := float64(d.Batch) * tensor.ComplexBytes
	for range d.Rank {
		n *= float64(d.Dim)
	}
	return d.Valid() && n <= maxTensorBytes
}

// FromStages builds a Workload from pre-staged pairs, as produced by the
// Redstar front end's dependency analysis (rather than the synthetic
// generator). inputs lists the distinct host-resident leaf tensors; pair
// operands must be either inputs or outputs of earlier pairs, every output
// a new tensor, and each pair's three descriptors those of a contraction
// (tensor.ContractOut) of at most maxTensorBytes. Tensor IDs
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
		if !validDesc(d) {
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
			if out, err := tensor.ContractOut(p.A, p.B, p.Out.ID); err != nil || out != p.Out || !validDesc(out) {
				return nil, fmt.Errorf("workload: %w: stage %d output t%d: %v x %v does not give %v",
					ErrInvalidStages, si, p.Out.ID, p.A, p.B, p.Out)
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

// UnmarshalJSON decodes a workload file — a Workload's JSON encoding, as
// wgen writes it — through FromStages: the file's name, Cfg, stages and
// inputs are kept, and its tensors numbered and its repeat rates, LastUse
// flags and Outputs derived from the stream. A stream FromStages refuses,
// an operand named with another descriptor than the one its tensor was
// made with, or LastUse flags or an Outputs list other than the derived
// ones, are refused with an error wrapping ErrInvalidStages that names the
// stage and the tensor.
func (w *Workload) UnmarshalJSON(b []byte) error {
	type file Workload // the fields, without this method
	var f file
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	stages := make([][]Pair, len(f.Stages))
	var claimed []Pair // the pairs as the file has them; FromStages rewrites LastUse
	for si, st := range f.Stages {
		stages[si], claimed = st.Pairs, append(claimed, st.Pairs...)
	}
	d, err := FromStages(f.Name, stages, f.Inputs)
	if err != nil {
		return err
	}
	if len(f.Outputs) != len(d.Outputs) {
		return fmt.Errorf("workload: %w: Outputs lists %d tensors, the stages produce %d", ErrInvalidStages, len(f.Outputs), len(d.Outputs))
	}
	made := append(d.Inputs[:len(d.Inputs):len(d.Inputs)], d.Outputs...) // by slot
	k := 0
	for si := range d.Stages {
		for _, p := range d.Stages[si].Pairs {
			for i, op := range [2]tensor.Desc{p.A, p.B} {
				if op != made[p.slot[i]] {
					return fmt.Errorf("workload: %w: stage %d names operand %v, made as %v", ErrInvalidStages, si, op, made[p.slot[i]])
				}
				if claim := claimed[k].LastUse[i]; claim != p.LastUse[i] {
					return fmt.Errorf("workload: %w: stage %d marks LastUse %v of operand t%d, the stream implies %v",
						ErrInvalidStages, si, claim, op.ID, p.LastUse[i])
				}
			}
			if f.Outputs[k] != p.Out {
				return fmt.Errorf("workload: %w: stage %d output t%d is not Outputs[%d]", ErrInvalidStages, si, p.Out.ID, k)
			}
			k++
		}
	}
	d.Cfg = f.Cfg
	*w = *d
	return nil
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
