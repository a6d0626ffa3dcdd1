package tensor

import (
	"fmt"
	"runtime"
)

// Stage-level batched contraction.
//
// A scheduler stage fans out many independent pair contractions. A batch
// (BatchPipeline.Run) runs them as one list of (op, group) work items on
// the pool's parallel-for: each item is one n x n group product through
// contractGroup — the routine ContractInto runs per group — with the
// worker's own pack buffer, so a batch is bit-identical to running
// ContractInto per op by construction. Operands are read where they lie:
// a tensor's groups are already the split panels the kernels take, so a
// shared operand costs nothing to share.

// BatchOp is one contraction of a stage batch: Dst = A x B with output
// identity OutID. Dst follows ContractInto's destination contract and
// may alias A or B of the SAME op (every item copies an aliased operand
// group before it writes that group); it must not alias another op's
// operand or destination (the numeric executor's level partitioning
// enforces this before it hands a batch over).
type BatchOp struct {
	Dst, A, B *Tensor
	OutID     uint64
}

// batchItem is one (op, group) work item of a batch.
type batchItem struct{ op, g int32 }

// plan validates every op, sizes every destination and builds the
// batch's work list on the pipeline. On error no destination has been
// sized. ops must be non-empty.
func (p *BatchPipeline) plan(ops []BatchOp) error {
	maxGroups, total := 0, 0
	for i, op := range ops {
		if op.Dst == nil {
			return fmt.Errorf("tensor: %w: ContractBatch op %d with nil destination", ErrInvalidOperand, i)
		}
		od, err := contractOperands(op.A, op.B, op.OutID)
		if err != nil {
			return fmt.Errorf("tensor: ContractBatch op %d: %w", i, err)
		}
		maxGroups = max(maxGroups, groups(od))
		total += groups(od)
	}
	p.ops = ops
	fresh := p.fresh[:0]
	for i, op := range ops {
		op.Dst.Desc, _ = ContractOut(op.A.Desc, op.B.Desc, op.OutID)
		if vals := 2 * int(op.Dst.Elems()); cap(op.Dst.Data) >= vals {
			op.Dst.Data = op.Dst.Data[:vals]
		} else {
			fresh = append(fresh, int32(i))
		}
	}
	p.fresh = fresh
	// The runtime zeroes fresh storage on the goroutine that allocates it,
	// so the destinations a recycled buffer cannot serve are allocated on
	// the pool, one per item, rather than by the caller alone.
	if err := p.Do(len(fresh), p.allocFn); err != nil {
		p.ops = nil
		return err
	}

	// Items are ordered group-major — group g of every op before group
	// g+1 of any — so consecutive items read the same offsets of a shared
	// operand while they are still cache-hot.
	if cap(p.items) < total {
		p.items = make([]batchItem, 0, total)
	}
	items := p.items[:0]
	for g := 0; g < maxGroups; g++ {
		for i, op := range ops {
			if g < groups(op.Dst.Desc) {
				items = append(items, batchItem{int32(i), int32(g)})
			}
		}
	}
	p.items = items
	return nil
}

// allocItem is the parallel-for body of plan's allocation: fresh
// destination i gets zeroed storage for its two planes.
func (p *BatchPipeline) allocItem(_, i int) {
	dst := p.ops[p.fresh[i]].Dst
	dst.Data = make([]float64, 2*dst.Elems())
}

// contractItem is the parallel-for body of a batch: item i's group
// product, into its destination, through worker w's pack buffer.
func (p *BatchPipeline) contractItem(w, i int) {
	it := p.items[i]
	op := p.ops[it.op]
	contractGroup(op.Dst.Data, op.A.Data, op.B.Data, int(it.g), op.Dst.Dim, p.bufs[w])
}

// ContractBatch executes all ops of a stage: one BatchPipeline.Run on a
// pipeline of workers goroutines (<=0 selects GOMAXPROCS) that lives for
// the call. Every op is validated before any destination is sized, so on
// error no op has been executed. A caller with a stream of batches should
// hold a BatchPipeline.
func ContractBatch(ops []BatchOp, workers int) error {
	if len(ops) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := NewBatchPipeline(workers)
	defer p.Close()
	return p.Run(ops)
}
