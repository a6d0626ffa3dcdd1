package sched

import (
	"strconv"
	"time"

	"micco/internal/numeric"
	"micco/internal/obs"
	"micco/internal/workload"
)

// Numeric mode executes the contraction stream with real complex
// arithmetic — on tensors held as a real and an imaginary float64 plane,
// the layout the kernels read and write in place — so tests and examples
// can validate that scheduling decisions never change numerical results. The engine owns one numeric.Executor per
// run and, at every stage boundary, runs the stage's pairs on it inline:
// dependency levels of batches on the executor's worker pool, the
// engine goroutine working as pool worker 0. The scheduling and simulation
// a separate goroutine could overlap with that are about 0.1% of a numeric
// job (DESIGN.md §6), so there is none.

// newNumeric draws the run's input tensors and parks its worker pool.
func newNumeric(w *workload.Workload, opts Options) (*numeric.Executor, error) {
	return numeric.New(w, numeric.Config{
		Seed:    opts.NumericSeed,
		Workers: opts.PoolSize(),
		Timed:   opts.Obs != nil,
	})
}

// runNumeric executes one stage's pairs on the numeric executor and
// charges the wall time to the stage and to the run.
func (e *engine) runNumeric(pairs []workload.Pair) error {
	t0 := time.Now()
	err := e.num.RunStage(e.ctx, pairs)
	d := time.Since(t0)
	e.numericW += d
	e.numericTotal += d
	return err
}

// publishWorkerGauges emits per-worker busy/wait/utilization gauges over
// the run's numeric wall time (the sum of its runNumeric calls): worker 0
// is the engine goroutine, busy while it works alongside the pool —
// allocating fresh destinations, contracting, taking dead tensors' norms —
// waiting while it resolves operands, keeps reclamation's books or sits at
// a batch's end for a straggler; workers 1..n-1 are the pool's parked
// goroutines.
func publishWorkerGauges(reg *obs.Registry, busy []time.Duration, total time.Duration) {
	for w, b := range busy {
		label := `{worker="` + strconv.Itoa(w) + `"}`
		reg.Gauge("micco_numeric_worker_busy_seconds" + label).Set(b.Seconds())
		reg.Gauge("micco_numeric_worker_wait_seconds" + label).Set(max(total-b, 0).Seconds())
		if total > 0 {
			reg.Gauge("micco_numeric_worker_utilization" + label).Set(b.Seconds() / total.Seconds())
		}
	}
}
