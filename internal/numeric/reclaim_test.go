package numeric

import (
	"context"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestNumericReclaimFreesDeadTensors asserts the arena actually reclaims:
// after a chained run, the executor must hold strictly fewer resident
// tensors than the total the stream produced.
func TestNumericReclaimFreesDeadTensors(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 3, Stages: 5, VectorSize: 8, TensorDim: 16,
		Batch: 1, Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(w, Config{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, st := range w.Stages {
		if err := x.RunStage(context.Background(), st.Pairs); err != nil {
			t.Fatal(err)
		}
	}
	resident := len(x.tensors)
	if len(x.norms) == 0 {
		t.Fatal("reclamation never fired on a chained workload")
	}
	total := resident + len(x.norms)
	if resident >= total {
		t.Errorf("resident = %d of %d tensors; want strictly fewer", resident, total)
	}
	t.Logf("resident %d / produced+inputs %d (reclaimed %d)", resident, total, len(x.norms))
}

// TestBuildLivenessExclusions: IDs written twice, or used as both input
// and output, must not be tracked for reclamation, and neither must a
// pinned ID. FromStages rejects such streams outright, so the workload is
// assembled by hand — the same defensive stance the level partitioner
// takes for its write-after-write chains.
func TestBuildLivenessExclusions(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	w := &workload.Workload{
		Name:   "waw",
		Inputs: []tensor.Desc{d(1), d(2), d(3)},
		Stages: []workload.Stage{
			{Index: 0, Pairs: []workload.Pair{{A: d(1), B: d(2), Out: d(10)}}},
			{Index: 1, Pairs: []workload.Pair{{A: d(10), B: d(2), Out: d(10)}}}, // rewrites 10
			{Index: 2, Pairs: []workload.Pair{{A: d(10), B: d(1), Out: d(1)}}},  // output collides with input 1
			{Index: 3, Pairs: []workload.Pair{{A: d(3), B: d(2), Out: d(11)}}},
		},
	}
	m := buildLiveness(w, []uint64{3})
	if _, ok := m[10]; ok {
		t.Error("ID 10 written twice: must be excluded from reclamation")
	}
	if _, ok := m[1]; ok {
		t.Error("ID 1 is both input and output: must be excluded from reclamation")
	}
	if _, ok := m[3]; ok {
		t.Error("ID 3 is pinned: must be excluded from reclamation")
	}
	if n, ok := m[2]; !ok || n != 3 {
		t.Errorf("ID 2: want tracked with 3 reads, got %d (tracked %v)", n, ok)
	}
	if n, ok := m[11]; !ok || n != 0 {
		t.Errorf("ID 11: want tracked with 0 reads, got %d (tracked %v)", n, ok)
	}
}

// TestPinnedTensorsSurviveReclaim: a pinned output that nothing reads is
// dead on production for the liveness count, and must still be resident —
// with the bits of the pairwise oracle, which keeps every tensor — when the
// stream ends.
func TestPinnedTensorsSurviveReclaim(t *testing.T) {
	w := levelStream(3*levelWidth, 2*levelWidth)
	pin := []uint64{100, 10000, 10000 + 2*levelWidth - 1} // a read intermediate and two finals
	keep := pairwiseOracle(t, w)
	x, err := New(w, Config{Seed: 5, Workers: 2, Pin: pin})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, st := range w.Stages {
		if err := x.RunStage(context.Background(), st.Pairs); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range pin {
		got, ok := x.Tensor(id)
		if !ok {
			t.Fatalf("pinned t%d was reclaimed", id)
		}
		want := keep.tensors[id]
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("pinned t%d element %d = %v, want %v", id, i, got.Data[i], want.Data[i])
			}
		}
	}
	if _, ok := x.Tensor(10001); ok {
		t.Error("unpinned final t10001 still resident")
	}
	if a, b := x.Fingerprint(), keep.fp; a != b {
		t.Errorf("fingerprint with pins %x, want %x", a, b)
	}
}
