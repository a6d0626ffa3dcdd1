// Package numeric executes a staged contraction stream with real complex
// arithmetic on tensors stored as a real plane followed by an imaginary
// plane of float64 values (tensor.Tensor), the layout the contraction
// kernels read and write directly. It is the one numeric executor of the
// repo: the scheduling engine (sched.Options.Numeric) and the correlator
// front end (redstar.Build.EvaluateNumeric) both hand it one stage at a
// time, and it runs the stage as dependency levels of batches on one
// persistent worker pool. Nothing in here knows a scheduler or a device,
// so no placement can change a number it produces.
package numeric

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
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
	// Pin lists tensors the executor must keep: the caller reads them
	// through Tensor once the stream has run. Every other tensor is freed
	// after its last reader and its storage recycled into later outputs;
	// the fingerprint does not move.
	Pin []uint64
	// Timed turns on per-worker busy accounting (WorkerBusy).
	Timed bool
}

// Executor holds the tensors of one run and executes its stages. It has a
// single owner: every method runs on the goroutine that created it, which
// also takes part in each batch as worker 0 of the pool.
type Executor struct {
	tensors map[uint64]*tensor.Tensor
	bp      *tensor.BatchPipeline

	// Level-execution scratch, reused across stages.
	lv  levelizer
	ops []tensor.BatchOp

	// Dead-tensor reclamation state. readsLeft counts, per tensor ID, the
	// operand reads the stream has yet to perform; a tensor whose count
	// hits zero is dead — no later contraction can observe it — so its
	// Frobenius norm is cached for the fingerprint and its buffer is
	// recycled through the arena. IDs that are pinned or whose liveness is
	// ambiguous (written more than once, or both input and output) are
	// absent from the map and never reclaimed.
	readsLeft map[uint64]int
	arena     *bufArena
	norms     map[uint64]float64 // final norms of reclaimed tensors
	// The tensors one settleReclaim reclaims, their IDs and norms, and the
	// Do body that computes four of the norms, bound once.
	deadT    []*tensor.Tensor
	deadIDs  []uint64
	deadNorm []float64
	normFn   func(w, i int)
}

// New draws the stream's input tensors and parks the worker pool. The
// caller must Close the executor on every path.
func New(w *workload.Workload, cfg Config) (*Executor, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := &Executor{
		tensors:   make(map[uint64]*tensor.Tensor, len(w.Inputs)),
		readsLeft: buildLiveness(w, cfg.Pin),
		arena:     newBufArena(),
		norms:     make(map[uint64]float64),
	}
	x.normFn = x.normQuad
	for _, d := range w.Inputs {
		t, err := tensor.NewRandom(d, rng)
		if err != nil {
			return nil, fmt.Errorf("numeric: input %v: %w", d, err)
		}
		x.tensors[d.ID] = t
	}
	// Inputs the stream never reads are dead on arrival.
	for _, d := range w.Inputs {
		if n, ok := x.readsLeft[d.ID]; ok && n == 0 {
			t := x.tensors[d.ID]
			delete(x.tensors, d.ID)
			x.norms[d.ID] = t.Norm()
			x.arena.put(t.Data)
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

// Close stops the pool's workers. Idempotent.
func (x *Executor) Close() { x.bp.Close() }

// WorkerBusy returns each pool worker's cumulative busy time, worker 0
// being the calling goroutine (zeros unless Config.Timed).
func (x *Executor) WorkerBusy() []time.Duration { return x.bp.WorkerBusy() }

// Tensor returns a tensor the run holds: an input, or an output that was
// pinned or never reclaimed.
func (x *Executor) Tensor(id uint64) (*tensor.Tensor, bool) {
	t, ok := x.tensors[id]
	return t, ok
}

// RunStage executes one stage of the stream: the pairs are partitioned
// into dependency levels and the levels run in order, each as batches on
// the pool. Batches are bit-identical to contracting pair by pair and
// levels replay the stream order, so the results are those of the stream
// executed one pair at a time. ctx is
// checked between batches. A panic in the level machinery (operand
// resolution, arena bookkeeping, reclamation) is returned as a
// *tensor.WorkerPanicError with worker -1; panics inside the batch kernels
// are contained by the pool and arrive as the same type.
func (x *Executor) RunStage(ctx context.Context, pairs []workload.Pair) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("numeric: level executor: %w",
				&tensor.WorkerPanicError{Worker: -1, Value: r, Stack: debug.Stack()})
		}
	}()
	for _, lvl := range x.lv.partition(pairs) {
		if err := x.execLevel(ctx, lvl); err != nil {
			return err
		}
	}
	return nil
}

// levelWidth is how many pairs of a dependency level run as one batch. A
// level's pairs are independent, so cutting it into consecutive
// sub-batches changes no result; what it changes is when storage comes
// back: reclamation settles after every sub-batch, so outputs that are
// dead on production (every final of a correlator's last level) cycle
// through levelWidth cache-warm buffers instead of one fresh zeroed
// allocation per pair. Narrower gives the pool fewer items to balance
// and more hand-offs, wider loses the recycling; DESIGN.md §14 has the
// sweep.
const levelWidth = 16

// execLevel runs one dependency level as consecutive batches of at
// most levelWidth pairs in stream order: resolve every operand up front
// (so a missing one is reported before anything runs, whatever its
// position), then per sub-batch draw destination buffers, contract on the
// pool, install outputs and settle reclamation. An operand keeps
// readsLeft > 0 — and so its storage — until the sub-batch of its last
// reader has settled.
func (x *Executor) execLevel(ctx context.Context, pairs []workload.Pair) error {
	ops := x.ops[:0]
	defer func() {
		clear(ops) // drop tensor references
		x.ops = ops[:0]
	}()
	for _, p := range pairs {
		a, ok := x.tensors[p.A.ID]
		if !ok {
			return fmt.Errorf("numeric: operand t%d missing", p.A.ID)
		}
		b, ok := x.tensors[p.B.ID]
		if !ok {
			return fmt.Errorf("numeric: operand t%d missing", p.B.ID)
		}
		ops = append(ops, tensor.BatchOp{A: a, B: b, OutID: p.Out.ID})
	}
	for lo := 0; lo < len(ops); lo += levelWidth {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+levelWidth, len(ops))
		sub, subPairs := ops[lo:hi], pairs[lo:hi]
		for i, p := range subPairs {
			sub[i].Dst = &tensor.Tensor{Data: x.arena.get(2 * int(p.Out.Elems()))}
		}
		if err := x.bp.Run(sub); err != nil {
			return fmt.Errorf("numeric: contraction: %w", err)
		}
		for i, p := range subPairs {
			x.tensors[p.Out.ID] = sub[i].Dst
		}
		if err := x.settleReclaim(subPairs); err != nil {
			return err
		}
	}
	return nil
}

// settleReclaim settles a sub-batch's operand reads and reclaims every
// tensor that died: they leave the store, their norms fan out across the
// pool four tensors per item, and their buffers go back to the arena.
// tensor.Norms gives every tensor Norm's own chain over the same data, so
// the fingerprint does not depend on how the norms were grouped or spread.
func (x *Executor) settleReclaim(pairs []workload.Pair) error {
	dead := x.deadT[:0]
	ids := x.deadIDs[:0]
	grab := func(id uint64) {
		if t, ok := x.tensors[id]; ok {
			delete(x.tensors, id)
			dead = append(dead, t)
			ids = append(ids, id)
		}
	}
	// readDone counts one operand read of id and reports whether it was the
	// last the stream performs.
	readDone := func(id uint64) bool {
		n, ok := x.readsLeft[id]
		if ok {
			x.readsLeft[id] = n - 1
		}
		return ok && n == 1
	}
	for _, p := range pairs {
		if readDone(p.A.ID) {
			grab(p.A.ID)
		}
		if readDone(p.B.ID) {
			grab(p.B.ID)
		}
		// An output no later pair reads is dead the moment it is produced.
		if n, ok := x.readsLeft[p.Out.ID]; ok && n == 0 {
			grab(p.Out.ID)
		}
	}
	defer func() {
		clear(dead)
		x.deadT = dead[:0]
		x.deadIDs = ids[:0]
	}()
	if cap(x.deadNorm) < len(dead) {
		x.deadNorm = make([]float64, len(dead))
	}
	x.deadT, x.deadNorm = dead, x.deadNorm[:len(dead)]
	if err := x.bp.Do((len(dead)+3)/4, x.normFn); err != nil {
		return err
	}
	for i, id := range ids {
		x.norms[id] = x.deadNorm[i]
		x.arena.put(dead[i].Data)
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

// buildLiveness counts, per tensor ID, how many operand reads the stream
// performs. IDs produced more than once or used both as workload input and
// contraction output (only possible through hand-built streams) are
// excluded: their per-version liveness is ambiguous, so they are kept
// resident for the whole run. So are the pinned IDs.
func buildLiveness(w *workload.Workload, pin []uint64) map[uint64]int {
	reads := make(map[uint64]int)
	produced := make(map[uint64]int)
	isInput := make(map[uint64]bool, len(w.Inputs))
	for _, d := range w.Inputs {
		isInput[d.ID] = true
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			reads[p.A.ID]++
			reads[p.B.ID]++
			produced[p.Out.ID]++
		}
	}
	m := make(map[uint64]int, len(reads)+len(w.Inputs))
	track := func(id uint64) {
		if produced[id] > 1 || (produced[id] > 0 && isInput[id]) {
			return
		}
		m[id] = reads[id]
	}
	for _, d := range w.Inputs {
		track(d.ID)
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			track(p.Out.ID)
		}
	}
	for _, id := range pin {
		delete(m, id)
	}
	return m
}

// Fingerprint sums the Frobenius norms of every tensor of the run, inputs
// included, in ID order (float addition is not associative, so the order
// must be deterministic): a compact checksum of the run's numerics that no
// scheduling decision can move. Reclaimed tensors contribute their cached
// norm — computed over the same data at reclamation time — so the value is
// the one a store that kept every tensor would give, at any pool width.
func (x *Executor) Fingerprint() float64 {
	norms := make(map[uint64]float64, len(x.tensors)+len(x.norms))
	ids := make([]uint64, 0, len(x.tensors)+len(x.norms))
	for id, t := range x.tensors {
		ids = append(ids, id)
		norms[id] = t.Norm()
	}
	for id, n := range x.norms {
		ids = append(ids, id)
		norms[id] = n
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, id := range ids {
		sum += norms[id]
	}
	return sum
}
