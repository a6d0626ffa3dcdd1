package tensor

import (
	"errors"
	"math/rand"
	"testing"
)

// runPoisoned plans a healthy stage batch and then pulls one op's
// destination out from under the plan, so the compute item that unpacks
// into it slices past an empty buffer and panics inside whichever
// participant drew it. Operands that lie about their shape — the obvious
// vector — are rejected by validation before anything runs
// (TestOperandValidation), so the fault is planted behind it.
func runPoisoned(t *testing.T, p *BatchPipeline, rng *rand.Rand) error {
	t.Helper()
	st, err := planBatch(stageOps(rng))
	if err != nil {
		t.Fatalf("planBatch: %v", err)
	}
	st.ops[1].Dst.Data = nil
	return p.runPlanned(st)
}

// TestContractBatchPanicContained: a panicking batch op must surface as a
// typed *WorkerPanicError with a stack — never crash the test binary or
// hang peers spinning on panels — at width 1 (the caller alone) and 4, and
// the pooled machinery must stay usable for the next (clean) batch.
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
	// The pooled state must come back clean: a healthy batch right after.
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
	if err := runPoisoned(t, p, rng); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("pipeline err = %v, want ErrWorkerPanic", err)
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
