// Package numeric executes a staged contraction stream with real complex
// arithmetic on tensors stored as a real plane followed by an imaginary
// plane of float64 values (tensor.Tensor), the layout the contraction
// kernels read and write directly. It is the one numeric executor of the
// repo: the scheduling engine (sched.Options.Numeric) and the correlator
// front end (redstar.Build.EvaluateNumeric) both call its Run once, and it
// runs the whole stream — across stage boundaries — as batches of ready
// pairs in demand order on one persistent worker pool. Nothing in here
// knows a scheduler or a device, so no placement can change a number it
// produces.
package numeric

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// Config is what a caller fixes for one run of a stream.
type Config struct {
	// Seed seeds the random input tensors, drawn from one stream in
	// Workload.Inputs order, so the data depends on nothing else.
	Seed int64
	// Workers is the width of the worker pool, the calling goroutine
	// included; <= 0 selects GOMAXPROCS. Results are bit-identical at any
	// width.
	Workers int
	// Pin lists the slots (Workload.TensorIDs) of tensors the executor must
	// keep: the caller reads them through Tensor once the stream has run,
	// and they stay the caller's after Close — their storage never goes to
	// another run. Every other tensor is freed after its last reader and
	// its storage recycled into later outputs of this run and, once the
	// executor is closed, of later runs; the fingerprint does not move.
	Pin []int
	// Timed turns on per-worker busy accounting (WorkerBusy).
	Timed bool
}

// Executor holds the tensors of one run and executes its stream. It has a
// single owner: every method runs on the goroutine that created it, which
// also takes part in each batch as worker 0 of the pool. Per-tensor state
// is indexed by slot in the workload's numbering (Pair.Slots).
type Executor struct {
	ids     []uint64         // the numbering: ids[slot] is the tensor's ID
	tensors []*tensor.Tensor // resident tensors; nil before production and after reclaim
	bp      *tensor.BatchPipeline

	// The stream's ready list and one batch's scratch: its pairs, by
	// number in the stream, and their contractions.
	ready readyList
	batch []int32
	ops   []tensor.BatchOp

	// Dead-tensor reclamation state. reads counts, per slot, the operand
	// reads the stream has yet to perform, or is pinned; a tensor whose
	// count hits zero is dead — no later contraction can observe it — so
	// its Frobenius norm is cached in norms for the fingerprint, dead is
	// set, and its buffer is recycled through the arena.
	reads []int32
	norms []float64
	dead  []bool
	arena *bufArena
	// The slots one settleReclaim reclaims, their tensors and norms, and
	// the Do body that computes four of the norms, bound once.
	deadT     []*tensor.Tensor
	deadSlots []int32
	deadNorm  []float64
	normFn    func(w, i int)
}

// pinned is the read count of a pinned slot: reads never lowers it.
const pinned = -1

// New draws the stream's input tensors, into recycled storage where the
// arena has some, and parks the worker pool. The caller must Close the
// executor on every path. A workload no constructor numbered is refused
// with workload.ErrUnnumbered.
func New(w *workload.Workload, cfg Config) (*Executor, error) {
	ids := w.TensorIDs()
	if ids == nil {
		return nil, fmt.Errorf("numeric: %w", workload.ErrUnnumbered)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := &Executor{
		ids:     ids,
		tensors: make([]*tensor.Tensor, len(ids)),
		norms:   make([]float64, len(ids)),
		dead:    make([]bool, len(ids)),
		arena:   newBufArena(),
	}
	x.reads, x.ready = buildLiveness(w, cfg.Pin)
	x.normFn = x.normQuad
	for s, d := range w.Inputs {
		t, err := tensor.NewRandomIn(d, x.arena.get(2*int(d.Elems())), rng)
		if err != nil {
			return nil, fmt.Errorf("numeric: input %v: %w", d, err)
		}
		x.tensors[s] = t
	}
	// Inputs the stream never reads are dead on arrival.
	for s := range w.Inputs {
		if x.reads[s] == 0 {
			x.norms[s], x.dead[s] = x.tensors[s].Norm(), true
			x.arena.put(x.tensors[s].Data)
			x.tensors[s] = nil
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x.bp = tensor.NewBatchPipeline(workers)
	if cfg.Timed {
		x.bp.EnableTiming()
	}
	return x, nil
}

// Close stops the pool's workers and hands the run's dead buffers to the
// process-wide tier of the arena, for later runs to draw. Tensors the run
// still holds — pinned, or live — are not recycled: Tensor and Fingerprint
// read them as before. Idempotent.
func (x *Executor) Close() {
	x.bp.Close()
	x.arena.release()
}

// WorkerBusy returns each pool worker's cumulative busy time, worker 0
// being the calling goroutine (zeros unless Config.Timed).
func (x *Executor) WorkerBusy() []time.Duration { return x.bp.WorkerBusy() }

// Tensor returns the tensor in slot s if the run holds it: an input, or
// an output that was pinned or is still read later. An unpinned tensor's
// storage is recycled once its last reader has run.
func (x *Executor) Tensor(s int) (*tensor.Tensor, bool) {
	t := x.tensors[s]
	return t, t != nil
}

// Run executes the stream: batches of at most levelWidth ready pairs,
// lowest demand rank first (readyList), each drawing destination buffers,
// contracting on the pool, installing its outputs, settling reclamation
// and readying the pairs that waited for them. Every pair's operands are
// the tensors the stream order would hand it and a batch is bit-identical
// to contracting pair by pair, so the results are those of the stream
// executed one pair at a time, in any order and at any pool width. ctx is
// checked before every batch. A panic in the executor's own machinery
// (ready list, arena bookkeeping, reclamation) is returned as a
// *tensor.WorkerPanicError with worker -1; panics inside the batch kernels
// are contained by the pool and arrive as the same type. After an error
// the stream is part-run: Tensor, Fingerprint and Close still answer.
// After Close it returns an error wrapping tensor.ErrPipelineClosed and
// touches no storage: the run's buffers belong to other runs by then.
func (x *Executor) Run(ctx context.Context) (err error) {
	if x.arena.released() {
		return fmt.Errorf("numeric: %w", tensor.ErrPipelineClosed)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("numeric: executor: %w",
				&tensor.WorkerPanicError{Worker: -1, Value: r, Stack: debug.Stack()})
		}
	}()
	ops := x.ops[:0]
	defer func() {
		clear(ops) // drop tensor references
		x.ops = ops[:0]
	}()
	for len(x.ready.heap) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		ops, x.batch = ops[:0], x.batch[:0]
		for len(x.batch) < levelWidth && len(x.ready.heap) > 0 {
			i := x.ready.pop()
			p := x.ready.pair(i)
			sa, sb, _ := p.Slots()
			x.batch = append(x.batch, i)
			ops = append(ops, tensor.BatchOp{
				A: x.tensors[sa], B: x.tensors[sb], OutID: p.Out.ID,
				Dst: &tensor.Tensor{Data: x.arena.get(2 * int(p.Out.Elems()))},
			})
		}
		if err := x.bp.Run(ops); err != nil {
			return fmt.Errorf("numeric: contraction: %w", err)
		}
		for k, i := range x.batch {
			_, _, so := x.ready.pair(i).Slots()
			x.tensors[so] = ops[k].Dst
		}
		if err := x.settleReclaim(x.batch); err != nil {
			return err
		}
		for _, i := range x.batch {
			x.ready.produced(i)
		}
	}
	return nil
}

// levelWidth is how many ready pairs run as one batch. Ready pairs are
// independent, so how many go together changes no result; what it changes
// is when storage comes back: reclamation settles after every batch, so
// outputs that are dead on production (every final of a correlator)
// cycle through levelWidth cache-warm buffers instead of one fresh zeroed
// allocation per pair. Narrower gives the pool fewer items to balance and
// more hand-offs, wider loses the recycling; DESIGN.md §14 has the sweep.
const levelWidth = 16

// settleReclaim settles a batch's operand reads and reclaims every
// tensor that died: they leave the store, their norms fan out across the
// pool four tensors per item, and their buffers go back to the arena.
// tensor.Norms gives every tensor Norm's own chain over the same data, so
// the fingerprint does not depend on how the norms were grouped or spread.
func (x *Executor) settleReclaim(batch []int32) error {
	dead := x.deadT[:0]
	slots := x.deadSlots[:0]
	// drop takes slot s's tensor out of the store once no read of it is left.
	drop := func(s int) {
		if x.reads[s] == 0 && x.tensors[s] != nil {
			dead = append(dead, x.tensors[s])
			slots = append(slots, int32(s))
			x.tensors[s] = nil
		}
	}
	for _, i := range batch {
		sa, sb, so := x.ready.pair(i).Slots()
		for _, s := range [2]int{sa, sb} {
			if x.reads[s] > 0 { // a pinned slot is never counted down
				x.reads[s]--
				drop(s)
			}
		}
		// An output no later pair reads is dead the moment it is produced.
		drop(so)
	}
	defer func() {
		clear(dead)
		x.deadT = dead[:0]
		x.deadSlots = slots[:0]
	}()
	if cap(x.deadNorm) < len(dead) {
		x.deadNorm = make([]float64, len(dead))
	}
	x.deadT, x.deadNorm = dead, x.deadNorm[:len(dead)]
	if err := x.bp.Do((len(dead)+3)/4, x.normFn); err != nil {
		return err
	}
	for i, s := range slots {
		x.arena.put(dead[i].Data)
		x.norms[s], x.dead[s] = x.deadNorm[i], true
	}
	return nil
}

// normQuad is settleReclaim's Do body: the norms of dead tensors 4i to
// 4i+3 (fewer in the last item).
func (x *Executor) normQuad(_, i int) {
	lo := 4 * i
	hi := min(lo+4, len(x.deadT))
	tensor.Norms(x.deadNorm[lo:hi], x.deadT[lo:hi])
}

// Fingerprint sums the Frobenius norms of every tensor of the run, inputs
// included, in ID order (float addition is not associative, so the order
// must be deterministic): a compact checksum of the run's numerics that no
// scheduling decision can move. Reclaimed tensors contribute their cached
// norm — computed over the same data at reclamation time — so the value is
// the one a store that kept every tensor would give, at any pool width.
func (x *Executor) Fingerprint() float64 {
	order := make([]int32, len(x.ids))
	for s := range order {
		order[s] = int32(s)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(x.ids[a], x.ids[b]) })
	var sum float64
	for _, s := range order {
		if t := x.tensors[s]; t != nil {
			sum += t.Norm()
		} else if x.dead[s] {
			sum += x.norms[s]
		}
	}
	return sum
}
