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
// contractGroupSoA — the routine ContractInto runs per group — with the
// worker's own pack buffer, so a batch is bit-identical to running
// ContractInto per op by construction. A shared operand is packed once per
// group it feeds rather than once per stage: packing is O(n^2) moves
// against an O(n^3) product, under 1% of a group at dim 128, so sharing
// panels across ops gains nothing measurable (DESIGN.md §12).

// BatchOp is one contraction of a stage batch: Dst = A x B with output
// identity OutID. Dst follows ContractInto's destination contract and
// may alias A or B of the SAME op (every item packs its group of both
// operands before it writes that group); it must not alias another op's
// operand or destination (the numeric executor's level partitioning
// enforces this before it hands a batch over).
type BatchOp struct {
	Dst, A, B *Tensor
	OutID     uint64
}

// batchItem is one (op, group) work item of a batch.
type batchItem struct{ op, g int32 }

// groups is the number of independent n x n group products in a
// contraction with output description d.
func groups(d Desc) int {
	if d.Rank == RankBaryon {
		return d.Batch * d.Dim
	}
	return d.Batch
}

// plan validates every op, sizes every destination and builds the
// batch's work list on the pipeline, sizing the pack buffers of the
// workers that will drain it. On error no destination has been sized.
// ops must be non-empty.
func (p *BatchPipeline) plan(ops []BatchOp) error {
	maxN, maxGroups, total := 0, 0, 0
	for i, op := range ops {
		if op.Dst == nil {
			return fmt.Errorf("tensor: ContractBatch op %d with nil destination", i)
		}
		od, err := contractOperands(op.A, op.B, op.OutID)
		if err != nil {
			return fmt.Errorf("tensor: ContractBatch op %d: %w", i, err)
		}
		maxN = max(maxN, od.Dim)
		maxGroups = max(maxGroups, groups(od))
		total += groups(od)
	}
	for _, op := range ops {
		od, _ := ContractOut(op.A.Desc, op.B.Desc, op.OutID)
		elems := int(od.Elems())
		if cap(op.Dst.Data) >= elems {
			op.Dst.Data = op.Dst.Data[:elems]
		} else {
			op.Dst.Data = make([]complex128, elems)
		}
		op.Dst.Desc = od
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
	p.ops = ops
	for _, b := range p.bufs[:min(p.workers, len(items))] {
		b.size(maxN)
	}
	return nil
}

// contractItem is the parallel-for body of a batch: item i's group
// product, into its destination, through worker w's pack buffer.
func (p *BatchPipeline) contractItem(w, i int) {
	it := p.items[i]
	op := p.ops[it.op]
	n := op.Dst.Dim
	lo, hi := int(it.g)*n*n, int(it.g+1)*n*n
	contractGroupSoA(op.Dst.Data[lo:hi], op.A.Data[lo:hi], op.B.Data[lo:hi], n, p.bufs[w])
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
