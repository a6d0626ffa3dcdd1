package tensor

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// pairwiseRef runs the ops one by one through ContractInto into fresh
// destinations, returning the outputs in op order.
func pairwiseRef(t *testing.T, ops []BatchOp) []*Tensor {
	t.Helper()
	outs := make([]*Tensor, len(ops))
	for i, op := range ops {
		out := &Tensor{}
		if err := ContractInto(out, op.A, op.B, op.OutID, 1); err != nil {
			t.Fatalf("pairwise op %d: %v", i, err)
		}
		outs[i] = out
	}
	return outs
}

// stageOps builds a stage-shaped batch: one shared operand feeding
// several pairs (a stage's usual fan-out), plus an independent pair,
// dimensions 3, 4, 7, 20 and 64 side by side — groups narrower than the
// vector tile share the work list with whole-tile ones — and an op whose
// destination is its own A, so every batch test runs the in-place store
// path through the worker pack buffers.
func stageOps(rng *rand.Rand) []BatchOp {
	shared, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: 24, Batch: 2}, rng)
	b1, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 24, Batch: 2}, rng)
	b2, _ := NewRandom(Desc{ID: 3, Rank: RankMeson, Dim: 24, Batch: 2}, rng)
	b3, _ := NewRandom(Desc{ID: 4, Rank: RankMeson, Dim: 24, Batch: 2}, rng)
	a2, _ := NewRandom(Desc{ID: 5, Rank: RankBaryon, Dim: 17, Batch: 2}, rng)
	b4, _ := NewRandom(Desc{ID: 6, Rank: RankBaryon, Dim: 17, Batch: 2}, rng)
	a3, _ := NewRandom(Desc{ID: 7, Rank: RankMeson, Dim: 4, Batch: 3}, rng)
	b5, _ := NewRandom(Desc{ID: 8, Rank: RankMeson, Dim: 4, Batch: 3}, rng)
	a4, _ := NewRandom(Desc{ID: 9, Rank: RankBaryon, Dim: 3, Batch: 2}, rng)
	b6, _ := NewRandom(Desc{ID: 10, Rank: RankBaryon, Dim: 3, Batch: 2}, rng)
	a5, _ := NewRandom(Desc{ID: 11, Rank: RankMeson, Dim: 7, Batch: 5}, rng)
	a6, _ := NewRandom(Desc{ID: 12, Rank: RankMeson, Dim: 64, Batch: 1}, rng)
	b7, _ := NewRandom(Desc{ID: 13, Rank: RankMeson, Dim: 64, Batch: 1}, rng)
	a8, _ := NewRandom(Desc{ID: 14, Rank: RankMeson, Dim: 20, Batch: 3}, rng)
	b8, _ := NewRandom(Desc{ID: 15, Rank: RankMeson, Dim: 20, Batch: 3}, rng)
	return []BatchOp{
		{Dst: &Tensor{}, A: shared, B: b1, OutID: 100},
		{Dst: &Tensor{}, A: shared, B: b2, OutID: 101},
		{Dst: &Tensor{}, A: b3, B: shared, OutID: 102}, // shared on the right
		{Dst: &Tensor{}, A: a2, B: b4, OutID: 103},     // independent baryon pair
		{Dst: &Tensor{}, A: a3, B: b5, OutID: 104},     // narrower than a vector tile
		{Dst: &Tensor{}, A: a4, B: b6, OutID: 105},
		{Dst: &Tensor{}, A: a5, B: a5, OutID: 106}, // one tensor on both sides
		{Dst: &Tensor{}, A: a6, B: b7, OutID: 107},
		{Dst: a8, A: a8, B: b8, OutID: 108}, // writes over its own A
	}
}

// TestContractBatchExactBitIdentical: the batch path must be
// bit-identical to running the same ops pairwise — shared operands, both
// ranks, dimensions 3 to 64 in one batch, and any worker count.
func TestContractBatchExactBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for _, workers := range []int{1, 2, 8} {
		ops := stageOps(rng)
		want := pairwiseRef(t, ops)
		if err := ContractBatch(ops, workers); err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			equalBits(t, op.Dst, want[i], "batch op "+itoa(i)+" workers "+itoa(workers))
		}
	}
}

// TestContractBatchInPlace: an op whose destination is one of its own
// operands is safe — each work item copies the group of the operand its
// destination aliases before it writes that group.
func TestContractBatchInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	for _, dim := range []int{5, 16} {
		shared, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: dim, Batch: 2}, rng)
		other, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: dim, Batch: 2}, rng)
		ref := []BatchOp{
			{Dst: &Tensor{}, A: shared, B: other, OutID: 100},
			{Dst: &Tensor{}, A: other, B: shared, OutID: 101},
		}
		want := pairwiseRef(t, ref)
		// Now run with the first op writing over one of ITS OWN operands.
		// The overwritten tensor (a distinct clone) is private to op 0, so
		// stage independence still holds.
		sharedC := shared.Clone(1)
		ops := []BatchOp{
			{Dst: sharedC, A: sharedC, B: other, OutID: 100},
			{Dst: &Tensor{}, A: other, B: shared, OutID: 101},
		}
		if err := ContractBatch(ops, 2); err != nil {
			t.Fatal(err)
		}
		equalBits(t, ops[0].Dst, want[0], "dim="+itoa(dim)+" in-place dst==a")
		equalBits(t, ops[1].Dst, want[1], "dim="+itoa(dim)+" neighbor of in-place op")
	}
}

// TestContractBatchValidation: a bad op fails the whole batch before any
// destination is sized or written.
func TestContractBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(804))
	a, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: 8, Batch: 2}, rng)
	b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 8, Batch: 2}, rng)
	mismatch, _ := NewRandom(Desc{ID: 3, Rank: RankMeson, Dim: 9, Batch: 2}, rng)
	good := BatchOp{Dst: &Tensor{}, A: a, B: b, OutID: 100}
	bad := BatchOp{Dst: &Tensor{}, A: a, B: mismatch, OutID: 101}
	if err := ContractBatch([]BatchOp{good, bad}, 1); err == nil {
		t.Fatal("mismatched op accepted")
	}
	if len(good.Dst.Data) != 0 {
		t.Fatal("destination written despite batch validation failure")
	}
	if err := ContractBatch([]BatchOp{{Dst: nil, A: a, B: b, OutID: 1}}, 1); err == nil {
		t.Fatal("nil destination accepted")
	}
	if err := ContractBatch(nil, 4); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestOperandValidation: an operand that is absent, or whose data does not
// hold exactly the elements its description promises, is an error naming
// the fault — not a nil dereference on the caller's goroutine, not a read
// past len(Data) into spare capacity, not a contained slice-bounds panic —
// at ContractInto, ContractBatch and BatchPipeline.Run alike, and before
// any destination is sized.
func TestOperandValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(805))
	d := Desc{ID: 1, Rank: RankMeson, Dim: 16, Batch: 2}
	a, _ := NewRandom(d, rng)
	b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 16, Batch: 2}, rng)
	short := &Tensor{Desc: d, Data: a.Data[:len(a.Data)-1]} // the missing value sits in spare capacity
	long := &Tensor{Desc: Desc{ID: 3, Rank: RankMeson, Dim: 16, Batch: 1}, Data: a.Data}
	p := NewBatchPipeline(2)
	defer p.Close()
	for _, c := range []struct {
		name string
		a, b *Tensor
		want string
	}{
		{"nil A", nil, b, "nil operand"},
		{"nil B", a, nil, "nil operand"},
		{"short A", short, b, "holds 1023 values, want 1024"},
		{"short B", a, short, "holds 1023 values, want 1024"},
		{"long A", long, long, "holds 1024 values, want 512"},
	} {
		entries := []struct {
			name string
			run  func(dst *Tensor) error
		}{
			{"ContractInto", func(dst *Tensor) error { return ContractInto(dst, c.a, c.b, 9, 2) }},
			{"ContractBatch", func(dst *Tensor) error {
				return ContractBatch([]BatchOp{{Dst: &Tensor{}, A: a, B: b, OutID: 8}, {Dst: dst, A: c.a, B: c.b, OutID: 9}}, 2)
			}},
			{"BatchPipeline.Run", func(dst *Tensor) error {
				return p.Run([]BatchOp{{Dst: dst, A: c.a, B: c.b, OutID: 9}})
			}},
		}
		for _, e := range entries {
			dst := &Tensor{}
			err := e.run(dst)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: err = %v, want one containing %q", e.name, c.name, err, c.want)
			}
			if errors.Is(err, ErrWorkerPanic) {
				t.Errorf("%s %s: surfaced as a contained panic: %v", e.name, c.name, err)
			}
			if dst.Data != nil || dst.Desc != (Desc{}) {
				t.Errorf("%s %s: destination sized despite the error", e.name, c.name)
			}
		}
	}
}

// TestContractBatchAllTiers runs the stage batch under every forced
// dispatch tier, checking bit-identity with the pairwise path on each.
func TestContractBatchAllTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(805))
	for _, tier := range kernelTiers {
		withKernelEnv(t, tier, func() {
			ops := stageOps(rng)
			want := pairwiseRef(t, ops)
			if err := ContractBatch(ops, 2); err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				equalBits(t, op.Dst, want[i], tier+" batch op "+itoa(i))
			}
		})
	}
}

// TestBatchPipelineSteadyStateAllocs: a held pipeline — what the numeric
// executor is — runs a warm batch without allocating: the work list, the
// item function and every worker's pack buffer live as long as the pool.
func TestBatchPipelineSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(806))
	ops := stageOps(rng)
	p := NewBatchPipeline(4)
	defer p.Close()
	if err := p.Run(ops); err != nil { // warm destinations and buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.Run(ops); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state BatchPipeline.Run allocates %.1f objects/op, want 0", allocs)
	}
}
