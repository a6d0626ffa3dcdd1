package sched

import "sync/atomic"

// Progress is a monotone pair-completion counter the engine bumps once
// per successfully placed pair (Options.Progress). A watchdog on another
// goroutine polls Pairs(): if the count stops moving for longer than its
// wall budget, the pipeline is stalled — a scheduler spinning in Assign,
// a wedged numeric pool — and the run can be cancelled and resumed from
// its last durable checkpoint. A resumed run bumps it for the pairs its
// replay of the checkpoint places as well, so a watchdog sees a long replay
// move, and a fault-free resume ends at the stream's pair count, as the
// uninterrupted run does. The zero value is ready to use; one
// Progress may be reused across resume attempts of the same logical run
// (the count then spans attempts, which is what a liveness probe wants).
type Progress struct {
	pairs atomic.Int64
}

// Pairs returns the number of pairs placed so far. Safe for concurrent
// use with the engine's bumps.
func (p *Progress) Pairs() int64 { return p.pairs.Load() }
