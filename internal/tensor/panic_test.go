package tensor

import (
	"errors"
	"math/rand"
	"testing"
)

// runPoisoned plans a healthy stage batch and then pulls one op's
// destination out from under the plan, so the work item that writes into
// it slices past an empty buffer and panics inside whichever participant
// drew it. Operands that lie about their shape — the obvious vector — are
// rejected by validation before anything runs (TestOperandValidation),
// so the fault is planted between planning and the Do drain.
func runPoisoned(t *testing.T, p *BatchPipeline, rng *rand.Rand) error {
	t.Helper()
	if err := p.plan(stageOps(rng)); err != nil {
		t.Fatalf("plan: %v", err)
	}
	p.ops[1].Dst.Data = nil
	return p.drain()
}

// TestContractBatchPanicContained: a panicking batch op must surface as a
// typed *WorkerPanicError with a stack — never crash the test binary or
// hang the caller — at width 1 (the caller alone) and 4, and the pooled
// pack buffers must stay usable for the next (clean) batch.
func TestContractBatchPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for _, workers := range []int{1, 4} {
		p := NewBatchPipeline(workers)
		err := runPoisoned(t, p, rng)
		p.Close()
		if err == nil {
			t.Fatalf("workers=%d: poisoned batch succeeded", workers)
		}
		if !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrWorkerPanic", workers, err)
		}
		var wp *WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("workers=%d: err %T does not unwrap to *WorkerPanicError", workers, err)
		}
		if len(wp.Stack) == 0 {
			t.Fatalf("workers=%d: contained panic carries no stack", workers)
		}
	}
	// The pooled buffers must come back clean: a healthy batch right after.
	ops := stageOps(rng)
	want := pairwiseRef(t, ops)
	if err := ContractBatch(ops, 4); err != nil {
		t.Fatalf("clean batch after poison: %v", err)
	}
	for i, op := range ops {
		equalBits(t, op.Dst, want[i], "post-poison op "+itoa(i))
	}
}

// TestBatchPipelinePanicContained: the persistent pool must contain a
// worker panic the same way — typed error, no deadlock on jobWG, workers
// still parked and serviceable afterwards.
func TestBatchPipelinePanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	p := NewBatchPipeline(4)
	defer p.Close()
	err := runPoisoned(t, p, rng)
	var wp *WorkerPanicError
	if !errors.As(err, &wp) || len(wp.Stack) == 0 {
		t.Fatalf("pipeline err = %v, want a *WorkerPanicError with a stack", err)
	}
	// Same pool, clean batch: bit-identical to the pairwise reference.
	ops := stageOps(rng)
	want := pairwiseRef(t, ops)
	if err := p.Run(ops); err != nil {
		t.Fatalf("clean pipeline batch after poison: %v", err)
	}
	for i, op := range ops {
		equalBits(t, op.Dst, want[i], "pipeline post-poison op "+itoa(i))
	}
}

// TestBatchPipelineDoPanicContained: a panic in a Do body is contained
// with the item counter burned so peers drain, and the pool survives.
func TestBatchPipelineDoPanicContained(t *testing.T) {
	p := NewBatchPipeline(4)
	defer p.Close()
	err := p.Do(64, func(w, i int) {
		if i == 17 {
			panic("poisoned item")
		}
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("Do err = %v, want ErrWorkerPanic", err)
	}
	var wp *WorkerPanicError
	if !errors.As(err, &wp) || wp.Value != "poisoned item" {
		t.Fatalf("Do panic value not preserved: %v", err)
	}
	// Clean Do on the same pool.
	hits := make([]int32, 32)
	if err := p.Do(len(hits), func(w, i int) { hits[i]++ }); err != nil {
		t.Fatalf("clean Do after poison: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d ran %d times", i, h)
		}
	}
}

// TestBatchPipelineClosed: Run and Do on a closed pipeline return
// ErrPipelineClosed — not a send on the closed job channel, not a silent
// inline run — at width 1 and 4, and run nothing.
func TestBatchPipelineClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	for _, workers := range []int{1, 4} {
		for _, c := range []struct {
			name string
			call func(p *BatchPipeline, ran *bool) error
		}{
			{"Run", func(p *BatchPipeline, ran *bool) error {
				ops := stageOps(rng)
				err := p.Run(ops)
				*ran = ops[0].Dst.Data != nil
				return err
			}},
			{"Do", func(p *BatchPipeline, ran *bool) error {
				return p.Do(8, func(w, i int) { *ran = true })
			}},
		} {
			p := NewBatchPipeline(workers)
			p.Close()
			p.Close() // idempotent
			ran := false
			if err := c.call(p, &ran); !errors.Is(err, ErrPipelineClosed) {
				t.Errorf("workers=%d %s after Close: err = %v, want ErrPipelineClosed", workers, c.name, err)
			}
			if ran {
				t.Errorf("workers=%d %s after Close: work ran", workers, c.name)
			}
		}
	}
}
