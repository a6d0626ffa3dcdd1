package sched

import (
	"fmt"
	"strconv"
	"time"

	"micco/internal/numeric"
	"micco/internal/workload"
)

// Numeric mode executes the contraction stream with real complex
// arithmetic — on tensors held as a real and an imaginary float64 plane,
// the layout the kernels read and write in place — so tests and examples
// can validate that scheduling decisions never change numerical results.
// The engine owns one numeric.Executor per run and runs the whole stream
// on it once, inline, at the last stage's boundary: batches of ready pairs
// in demand order on the executor's worker pool, the engine goroutine
// working as pool worker 0. Waiting for the last boundary lets the
// executor cross the earlier ones, so intermediates die next to their
// readers instead of piling up at every barrier (DESIGN.md §14). The
// scheduling and simulation a separate goroutine could overlap with the
// numerics are about 0.1% of a numeric job (DESIGN.md §6), so there is
// none.

// numericRun is the engine's numeric layer, nil unless Options.Numeric: the
// run's executor and the wall time the run spends in it.
type numericRun struct {
	ex    *numeric.Executor
	total time.Duration
}

// newNumericRun draws the run's input tensors and parks its worker pool.
func newNumericRun(w *workload.Workload, opts Options) (*numericRun, error) {
	if !opts.Numeric {
		return nil, nil
	}
	ex, err := numeric.New(w, numeric.Config{
		Seed:    opts.NumericSeed,
		Workers: opts.PoolSize(),
		Timed:   opts.Obs != nil,
	})
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	return &numericRun{ex: ex}, nil
}

// run executes the stream on the executor at the last stage's boundary —
// si is the stage whose pairs were just placed; every other boundary is
// a no-op — and charges the wall time to that stage and to the run. A
// resumed run replays its prefix through here too, so the stream runs
// exactly once whichever boundary the run started from.
func (n *numericRun) run(e *engine, si int) error {
	if n == nil || si != len(e.w.Stages)-1 {
		return nil
	}
	t0 := time.Now()
	err := n.ex.Run(e.ctx)
	d := time.Since(t0)
	e.numericW += d
	n.total += d
	if err != nil {
		return fmt.Errorf("sched: stage %d: %w", si, err)
	}
	return nil
}

// finish hands a finished run its fingerprint and, watched, per-worker
// busy/wait/utilization gauges over the run's numeric wall time (worker 0 is
// the engine goroutine, working alongside the pool; 1..n-1 its parked
// goroutines), and on every exit stops the workers: no goroutine outlives
// the run.
func (n *numericRun) finish(e *engine, err error) {
	if n == nil {
		return
	}
	defer n.ex.Close()
	if err != nil {
		return
	}
	e.res.NumericFingerprint = n.ex.Fingerprint()
	if e.ob == nil {
		return
	}
	for w, b := range n.ex.WorkerBusy() {
		label := `{worker="` + strconv.Itoa(w) + `"}`
		e.ob.reg.Gauge("micco_numeric_worker_busy_seconds" + label).Set(b.Seconds())
		e.ob.reg.Gauge("micco_numeric_worker_wait_seconds" + label).Set(max(n.total-b, 0).Seconds())
		if n.total > 0 {
			e.ob.reg.Gauge("micco_numeric_worker_utilization" + label).Set(b.Seconds() / n.total.Seconds())
		}
	}
}
