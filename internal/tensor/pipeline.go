package tensor

import (
	"sync"
	"sync/atomic"
	"time"
)

// BatchPipeline is a persistent cooperative worker pool for stage-batched
// contractions, and the only code that hands fused work items to
// goroutines: it parks its workers between batches and reuses each
// worker's pack scratch across every batch it ever runs — the right shape
// for a numeric executor that feeds one dependency level after another.
// ContractBatch is one Run on a pipeline that lives for the call.
//
// The calling goroutine participates as worker 0 of every Run and Do
// call; the pipeline owns workers-1 parked goroutines. Run and Do must
// not be called concurrently with themselves or each other (the numeric
// executor's level stream is strictly sequential, which is the point).
// Batches are bit-identical to the pairwise path at any worker count.
//
// Panic containment: a panic inside a batch op or a Do body never unwinds
// past the pool. Workers recover per job (so jobWG.Done always runs and a
// poisoned batch cannot deadlock the caller), the in-flight batch is
// poisoned to unblock peers spinning on operand panels, and the Run/Do
// call returns a *WorkerPanicError carrying the stack.
type BatchPipeline struct {
	workers int
	jobs    chan pipeJob
	wg      sync.WaitGroup // worker goroutine lifetime
	jobWG   sync.WaitGroup // per-call completion
	buf     *packBuf       // worker 0's persistent scratch

	// Generic parallel-for state (Do); written by the caller before the
	// job is published, so workers read it race-free.
	doItems int
	doFn    func(w, i int)
	doNext  atomic.Int64

	// First contained panic of the current Do call (batch jobs store
	// theirs on the batchState instead).
	doPanicMu  sync.Mutex
	doPanicErr *WorkerPanicError

	// Per-worker busy nanoseconds, accumulated only after EnableTiming
	// (atomics, so they may be read while workers are parked).
	busyNS []atomic.Int64
	timed  atomic.Bool

	closed bool
}

// pipeJob is one unit handed to a parked worker: a cooperative batch
// (st != nil) or the pipeline's current generic parallel-for.
type pipeJob struct {
	st *batchState
	w  int // worker index assigned to the recipient
}

// NewBatchPipeline starts a pipeline of the given total width (minimum
// 1, i.e. fully inline). workers-1 goroutines are spawned and parked.
func NewBatchPipeline(workers int) *BatchPipeline {
	if workers < 1 {
		workers = 1
	}
	p := &BatchPipeline{
		workers: workers,
		jobs:    make(chan pipeJob),
		busyNS:  make([]atomic.Int64, workers),
	}
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

// worker is one parked pipeline goroutine; it keeps its pack scratch
// across every batch it ever touches.
func (p *BatchPipeline) worker() {
	defer p.wg.Done()
	var buf *packBuf
	for job := range p.jobs {
		p.handle(job, &buf)
	}
	if buf != nil {
		putPackBuf(buf)
	}
}

// handle runs one job with the per-job completion guaranteed: jobWG.Done
// fires even if the job panics, so a poisoned batch can never deadlock
// the caller's jobWG.Wait.
func (p *BatchPipeline) handle(job pipeJob, buf **packBuf) {
	defer p.jobWG.Done()
	var t0 time.Time
	timed := p.timed.Load()
	if timed {
		t0 = time.Now()
	}
	if job.st != nil {
		if *buf == nil {
			*buf = getPackBuf(job.st.maxN)
		}
		job.st.guardWork(job.w, *buf)
	} else {
		p.guardGeneric(job.w)
	}
	if timed {
		p.busyNS[job.w].Add(int64(time.Since(t0)))
	}
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

// Run executes one batch of ops cooperatively across the pool, packing
// each unique operand tensor once, with the pack and compute phases
// overlapped. Every op is validated before any destination is sized, so
// on error no op has been executed. The caller computes alongside the
// parked workers and returns when the batch is fully unpacked into its
// destinations. Plans, panels and work lists are pooled: steady-state
// batches allocate nothing. A panic inside any op surfaces as a
// *WorkerPanicError (destinations then hold unspecified data).
func (p *BatchPipeline) Run(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	st, err := planBatch(ops)
	if err != nil {
		return err
	}
	return p.runPlanned(st)
}

// runPlanned drains a planned batch's work list across the pool and
// releases the state.
func (p *BatchPipeline) runPlanned(st *batchState) error {
	nw := p.workers
	if n := st.workItems(); nw > n {
		nw = n
	}
	p.jobWG.Add(nw - 1)
	for w := 1; w < nw; w++ {
		p.jobs <- pipeJob{st: st, w: w}
	}
	var t0 time.Time
	timed := p.timed.Load()
	if timed {
		t0 = time.Now()
	}
	if p.buf == nil {
		p.buf = getPackBuf(st.maxN)
	}
	st.guardWork(0, p.buf)
	if timed {
		p.busyNS[0].Add(int64(time.Since(t0)))
	}
	p.jobWG.Wait()
	err := st.takePanic()
	st.release()
	return err
}

// Do runs fn(worker, item) for every item in [0, items) across the pool
// — the pipeline's generic parallel-for, used by the numeric executor to
// fan out reclamation work (norms of dead tensors) onto the same workers
// that just computed the batch. fn must be safe for concurrent calls
// with distinct items; the worker index is stable within one Do and
// suitable for per-worker arena handles. A panic inside fn abandons the
// remaining items and surfaces as a *WorkerPanicError.
func (p *BatchPipeline) Do(items int, fn func(w, i int)) error {
	if items <= 0 {
		return nil
	}
	nw := p.workers
	if nw > items {
		nw = items
	}
	p.doItems = items
	p.doFn = fn
	p.doNext.Store(0)
	if nw > 1 {
		p.jobWG.Add(nw - 1)
		for w := 1; w < nw; w++ {
			p.jobs <- pipeJob{w: w}
		}
	}
	var t0 time.Time
	timed := p.timed.Load()
	if timed {
		t0 = time.Now()
	}
	p.guardGeneric(0)
	if timed {
		p.busyNS[0].Add(int64(time.Since(t0)))
	}
	if nw > 1 {
		p.jobWG.Wait()
	}
	p.doFn = nil
	return p.takeDoPanic()
}

// Close parks the pipeline permanently: workers exit and return their
// scratch to the pack pool. Idempotent; Run and Do must not be called
// after Close.
func (p *BatchPipeline) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.jobs)
	p.wg.Wait()
	if p.buf != nil {
		putPackBuf(p.buf)
		p.buf = nil
	}
}
