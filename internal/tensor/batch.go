package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Stage-level batched contraction.
//
// A scheduler stage fans out many independent pair contractions, and the
// same operand tensor commonly feeds several of them (one propagator
// against many sink interpolators, say). Executed pairwise, every
// contraction re-packs its operands into split-complex panels — the
// shared operand is converted once per pair. A fused batch
// (BatchPipeline.Run) packs each unique operand tensor exactly once into
// a pooled split arena, and all (op, group) work items stream through the
// micro-kernels and unpack once into their destinations.
//
// Pack and compute overlap through a two-phase work list: a single atomic
// counter hands out every pack item before any compute item, and each
// compute item waits (spin + Gosched) only for its own two operand panels
// to be published — not for the whole pack phase. Workers that finish
// packing early start computing against ready panels while stragglers
// still pack, instead of idling at a full barrier.
//
// The fused path is bit-identical to running ContractInto per op by
// construction: packing is pure data movement, and both paths hand the
// packed panels to the same routine, mulPackedExact.

// BatchOp is one contraction of a stage batch: Dst = A x B with output
// identity OutID. Dst follows ContractInto's destination contract and
// may alias A or B of the SAME op; it must not alias another op's
// operand or destination (the numeric executor's level partitioning
// enforces this before fusing a batch).
type BatchOp struct {
	Dst, A, B *Tensor
	OutID     uint64
}

// splitPanel is a whole tensor unpacked into split-complex form. ready
// flips to 1 once the panel's contents are fully packed; compute items
// spin on it, which is what lets packing and computing overlap.
type splitPanel struct {
	re, im []float64
	ready  atomic.Uint32
}

// splitPool recycles whole-tensor split panels across stage batches.
var splitPool = sync.Pool{New: func() any { return new(splitPanel) }}

// opPlan is the per-op execution plan of one batch.
type opPlan struct {
	n, groups int
	aP, bP    *splitPanel // operand panels
}

// fusedItem is one (op, group) compute work item.
type fusedItem struct{ op, g int32 }

// batchState is the reusable execution state of one fused batch: the
// validated plans, the unique-operand panel set, and the two-phase work
// list (pack items first, compute items after) that workers drain
// through a shared atomic counter. States recycle through statePool so a
// steady-state batch stream allocates nothing.
type batchState struct {
	ops      []BatchOp
	plans    []opPlan
	panels   map[*Tensor]*splitPanel
	packList []*Tensor
	items    []fusedItem
	maxN     int // largest group dimension (sizes worker scratch)
	next     atomic.Int64
	// poisoned flips to 1 when a participant panics mid-batch: workers
	// spinning on an unpacked panel unblock, remaining work items are
	// abandoned, and the batch call returns panicErr (first panic wins)
	// instead of crashing the process. Destinations of a poisoned batch
	// hold unspecified data.
	poisoned atomic.Uint32
	panicMu  sync.Mutex
	panicErr *WorkerPanicError
}

// poison records a recovered worker panic (first one wins) and unblocks
// every participant of the batch.
func (st *batchState) poison(e *WorkerPanicError) {
	st.panicMu.Lock()
	if st.panicErr == nil {
		st.panicErr = e
	}
	st.panicMu.Unlock()
	st.poisoned.Store(1)
}

// takePanic returns the batch's contained panic, nil on a clean batch.
// The concrete type is preserved so errors.As can reach the stack.
func (st *batchState) takePanic() error {
	if st.poisoned.Load() == 0 {
		return nil
	}
	st.panicMu.Lock()
	defer st.panicMu.Unlock()
	if st.panicErr == nil {
		return nil
	}
	return st.panicErr
}

// guardWork runs st.work on one participant, converting a panic into batch
// poison instead of letting it unwind past the batch machinery (which
// would leave peers spinning and, on a bare goroutine, kill the process).
func (st *batchState) guardWork(worker int, buf *packBuf) {
	defer recoverToPoison(st, worker)
	st.work(buf)
}

// recoverToPoison is the shared deferred recovery of every batch
// participant.
func recoverToPoison(st *batchState, worker int) {
	if r := recover(); r != nil {
		st.poison(&WorkerPanicError{Worker: worker, Value: r, Stack: stackTrace()})
	}
}

// waitPanel blocks until the panel's pack item has published its contents
// (the atomic load pairs with the Store(1) in the pack item, so the panel
// data is visible afterwards) or the batch is poisoned, reporting whether
// the panel is usable. Gosched keeps the spin cooperative — essential when
// workers outnumber Ps.
func (st *batchState) waitPanel(p *splitPanel) bool {
	for p.ready.Load() == 0 {
		if st.poisoned.Load() != 0 {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// statePool recycles batch states across BatchPipeline.Run calls.
var statePool = sync.Pool{New: func() any {
	return &batchState{panels: make(map[*Tensor]*splitPanel)}
}}

// planBatch validates every op, sizes destinations and builds the
// two-phase work list. On error no destination has been sized and no op
// executed. ops must be non-empty.
func planBatch(ops []BatchOp) (*batchState, error) {
	st := statePool.Get().(*batchState)
	st.ops = ops
	st.plans = st.plans[:0]
	for i, op := range ops {
		if op.Dst == nil {
			st.abort()
			return nil, fmt.Errorf("tensor: ContractBatch op %d with nil destination", i)
		}
		od, err := contractOperands(op.A, op.B, op.OutID)
		if err != nil {
			st.abort()
			return nil, fmt.Errorf("tensor: ContractBatch op %d: %w", i, err)
		}
		groups := od.Batch
		if od.Rank == RankBaryon {
			groups = od.Batch * od.Dim
		}
		st.plans = append(st.plans, opPlan{n: od.Dim, groups: groups})
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

	// Collect each unique operand exactly once and give it a pooled
	// panel. The panel map and pack list are reused across batches;
	// panels are published unready and flip ready as packed.
	st.packList = st.packList[:0]
	st.maxN = 0
	maxGroups := 0
	for i, op := range ops {
		st.maxN = max(st.maxN, st.plans[i].n)
		maxGroups = max(maxGroups, st.plans[i].groups)
		for _, t := range [2]*Tensor{op.A, op.B} {
			if _, ok := st.panels[t]; !ok {
				p := splitPool.Get().(*splitPanel)
				p.re = growf(p.re, len(t.Data))
				p.im = growf(p.im, len(t.Data))
				p.ready.Store(0)
				st.panels[t] = p
				st.packList = append(st.packList, t)
			}
		}
		st.plans[i].aP = st.panels[op.A]
		st.plans[i].bP = st.panels[op.B]
	}

	// Compute items are ordered group-major — group g of every op before
	// group g+1 of any — so consecutive items hit the same panel offsets
	// of shared operands while they are still cache-hot; op-major order
	// would evict a shared operand's group between its readers.
	st.items = st.items[:0]
	for g := 0; g < maxGroups; g++ {
		for i := range ops {
			if g < st.plans[i].groups {
				st.items = append(st.items, fusedItem{int32(i), int32(g)})
			}
		}
	}
	st.next.Store(0)
	return st, nil
}

// workItems is the total two-phase work-list length.
func (st *batchState) workItems() int { return len(st.packList) + len(st.items) }

// work drains the two-phase work list: every pack item is handed out
// before any compute item, and each compute item waits only for its own
// operand panels. Safe for any number of concurrent callers; each brings
// its own scratch buffer.
func (st *batchState) work(buf *packBuf) {
	nPack := len(st.packList)
	total := nPack + len(st.items)
	for {
		if st.poisoned.Load() != 0 {
			return
		}
		i := int(st.next.Add(1)) - 1
		if i >= total {
			return
		}
		if i < nPack {
			t := st.packList[i]
			p := st.panels[t]
			packSplit(p.re, p.im, t.Data)
			p.ready.Store(1)
			continue
		}
		st.compute(st.items[i-nPack], buf)
	}
}

// compute executes one (op, group) item once its operand panels are
// packed.
func (st *batchState) compute(it fusedItem, buf *packBuf) {
	op := st.ops[it.op]
	plan := &st.plans[it.op]
	n := plan.n
	off := int(it.g) * n * n
	if !st.waitPanel(plan.aP) || !st.waitPanel(plan.bP) {
		return
	}
	aRe := plan.aP.re[off : off+n*n]
	aIm := plan.aP.im[off : off+n*n]
	bRe := plan.bP.re[off : off+n*n]
	bIm := plan.bP.im[off : off+n*n]
	dst := op.Dst.Data[off : off+n*n]
	mulPackedExact(dst, aRe, aIm, bRe, bIm, n, buf)
}

// release returns the state's panels and the state itself to their
// pools, dropping tensor references so the batch keeps nothing alive.
func (st *batchState) release() {
	for _, t := range st.packList {
		p := st.panels[t]
		p.ready.Store(0)
		splitPool.Put(p)
	}
	st.abort()
}

// abort recycles a state that never ran (panels, if any, must already be
// back in their pool via release).
func (st *batchState) abort() {
	clear(st.panels)
	st.packList = st.packList[:0]
	st.items = st.items[:0]
	for i := range st.plans {
		st.plans[i].aP, st.plans[i].bP = nil, nil
	}
	st.plans = st.plans[:0]
	st.ops = nil
	st.poisoned.Store(0)
	st.panicErr = nil
	statePool.Put(st)
}

// ContractBatch executes all ops of a stage, packing each unique operand
// tensor once: one BatchPipeline.Run on a pipeline of workers goroutines
// (<=0 selects GOMAXPROCS) that lives for the call. Every op is validated
// before any destination is sized, so on error no op has been executed.
// A caller with a stream of batches should hold a BatchPipeline.
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
