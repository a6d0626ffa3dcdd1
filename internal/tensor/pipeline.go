package tensor

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPipelineClosed is returned by BatchPipeline.Run and Do after Close.
var ErrPipelineClosed = errors.New("tensor: batch pipeline closed")

// BatchPipeline is a persistent cooperative worker pool with one
// parallel-for (Do): it parks its workers between calls and keeps one pack
// buffer per worker for its whole lifetime — the right shape for a
// numeric executor that feeds one batch of ready pairs after another. Run is
// a batch of contractions drained through Do; ContractBatch is one Run on
// a pipeline that lives for the call. (A multi-worker ContractInto does
// not come here: it spawns a goroutine per worker on every call.)
//
// The calling goroutine participates as worker 0 of every Run and Do
// call; the pipeline owns workers-1 parked goroutines. Run and Do must
// not be called concurrently with themselves or each other (the numeric
// executor's level stream is strictly sequential, which is the point).
// Batches are bit-identical to the pairwise path at any worker count.
//
// Panic containment: a panic inside a batch op or a Do body never unwinds
// past the pool. Every participant recovers (so jobWG.Done always runs
// and the caller cannot deadlock), burns the item counter so its peers
// drain, and the Run/Do call returns a *WorkerPanicError carrying the
// stack.
type BatchPipeline struct {
	workers int
	jobs    chan int       // a parked worker's index for the current Do
	wg      sync.WaitGroup // worker goroutine lifetime
	jobWG   sync.WaitGroup // per-call completion
	bufs    []*packBuf     // one per worker, for the pipeline's lifetime

	// The current batch (Run): its ops, the indices of the destinations it
	// allocates, its group-major work list and the Do bodies that allocate
	// one destination and run one item, bound once so a Run allocates
	// nothing of its own.
	ops     []BatchOp
	fresh   []int32
	items   []batchItem
	allocFn func(w, i int)
	itemFn  func(w, i int)

	// Parallel-for state (Do); written by the caller before the job is
	// published, so workers read it race-free.
	doItems int
	doFn    func(w, i int)
	doNext  atomic.Int64

	// First contained panic of the current Do call.
	doPanicMu  sync.Mutex
	doPanicErr *WorkerPanicError

	// Per-worker busy nanoseconds, accumulated only after EnableTiming
	// (atomics, so they may be read while workers are parked).
	busyNS []atomic.Int64
	timed  atomic.Bool

	closed bool
}

// NewBatchPipeline starts a pipeline of the given total width (minimum
// 1, i.e. fully inline). workers-1 goroutines are spawned and parked.
func NewBatchPipeline(workers int) *BatchPipeline {
	if workers < 1 {
		workers = 1
	}
	p := &BatchPipeline{
		workers: workers,
		jobs:    make(chan int),
		bufs:    make([]*packBuf, workers),
		busyNS:  make([]atomic.Int64, workers),
	}
	for w := range p.bufs {
		p.bufs[w] = packPool.Get().(*packBuf)
	}
	p.allocFn = p.allocItem
	p.itemFn = p.contractItem
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pipeline's total width, caller included.
func (p *BatchPipeline) Workers() int { return p.workers }

// EnableTiming turns on per-worker busy accounting (WorkerBusy). Call
// before the first Run; off by default so the untimed path pays nothing.
func (p *BatchPipeline) EnableTiming() { p.timed.Store(true) }

// WorkerBusy returns each worker's cumulative busy time (zero without
// EnableTiming). Safe to call whenever no Run or Do is in flight.
func (p *BatchPipeline) WorkerBusy() []time.Duration {
	out := make([]time.Duration, p.workers)
	for i := range out {
		out[i] = time.Duration(p.busyNS[i].Load())
	}
	return out
}

// worker is one parked pipeline goroutine.
func (p *BatchPipeline) worker() {
	defer p.wg.Done()
	for w := range p.jobs {
		p.handle(w)
	}
}

// handle runs worker w's share of the current Do with the per-job
// completion guaranteed: guardGeneric contains any panic, so jobWG.Done
// always fires.
func (p *BatchPipeline) handle(w int) {
	defer p.jobWG.Done()
	p.timedGeneric(w)
}

// timedGeneric runs guardGeneric, charging its wall time to worker w
// when timing is on.
func (p *BatchPipeline) timedGeneric(w int) {
	if !p.timed.Load() {
		p.guardGeneric(w)
		return
	}
	t0 := time.Now()
	p.guardGeneric(w)
	p.busyNS[w].Add(int64(time.Since(t0)))
}

// runGeneric drains the current Do job's atomic item counter.
func (p *BatchPipeline) runGeneric(w int) {
	for {
		i := int(p.doNext.Add(1)) - 1
		if i >= p.doItems {
			return
		}
		p.doFn(w, i)
	}
}

// guardGeneric runs runGeneric with panic containment: a panicking fn is
// recorded (first one wins), the remaining items are abandoned by burning
// the item counter, and peers drain out cleanly.
func (p *BatchPipeline) guardGeneric(w int) {
	defer func() {
		if r := recover(); r != nil {
			e := &WorkerPanicError{Worker: w, Value: r, Stack: stackTrace()}
			p.doPanicMu.Lock()
			if p.doPanicErr == nil {
				p.doPanicErr = e
			}
			p.doPanicMu.Unlock()
			p.doNext.Store(int64(p.doItems))
		}
	}()
	p.runGeneric(w)
}

// takeDoPanic consumes the current Do call's contained panic, if any.
func (p *BatchPipeline) takeDoPanic() error {
	p.doPanicMu.Lock()
	defer p.doPanicMu.Unlock()
	e := p.doPanicErr
	p.doPanicErr = nil
	if e == nil {
		return nil
	}
	return e
}

// Run executes one batch of ops across the pool: every op is validated
// before any destination is sized (so on error no op has been executed),
// the destinations are sized — those whose capacity falls short get fresh
// storage, allocated through Do — and the batch's (op, group) items are
// drained through Do, the caller computing alongside the parked workers.
// Steady-state batches allocate nothing. A panic inside any op surfaces
// as a *WorkerPanicError (destinations then hold unspecified data).
func (p *BatchPipeline) Run(ops []BatchOp) error {
	if p.closed {
		return ErrPipelineClosed
	}
	if len(ops) == 0 {
		return nil
	}
	if err := p.plan(ops); err != nil {
		return err
	}
	return p.drain()
}

// drain runs the planned batch through Do and lets go of its ops.
func (p *BatchPipeline) drain() error {
	err := p.Do(len(p.items), p.itemFn)
	p.ops = nil
	return err
}

// Do runs fn(worker, item) for every item in [0, items) across the pool
// — the pipeline's one parallel-for: Run drains its batches through it,
// and the numeric executor fans out reclamation work (norms of dead
// tensors) onto the same workers that just computed the batch. fn must
// be safe for concurrent calls with distinct items; the worker index is
// stable within one Do and suitable for per-worker arena handles. A panic
// inside fn abandons the remaining items and surfaces as a
// *WorkerPanicError.
func (p *BatchPipeline) Do(items int, fn func(w, i int)) error {
	if p.closed {
		return ErrPipelineClosed
	}
	if items <= 0 {
		return nil
	}
	nw := min(p.workers, items)
	p.doItems = items
	p.doFn = fn
	p.doNext.Store(0)
	p.jobWG.Add(nw - 1)
	for w := 1; w < nw; w++ {
		p.jobs <- w
	}
	p.timedGeneric(0)
	p.jobWG.Wait()
	p.doFn = nil
	return p.takeDoPanic()
}

// Close parks the pipeline permanently: workers exit and the pack
// buffers go back to their pool. Idempotent; Run and Do return
// ErrPipelineClosed afterwards.
func (p *BatchPipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.jobs)
	p.wg.Wait()
	for _, b := range p.bufs {
		packPool.Put(b)
	}
	p.bufs = nil
}
