package numeric

import (
	"context"
	"math"
	"reflect"
	"runtime/debug"
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
	total := held(x)
	resident := 0
	for _, t := range x.tensors {
		if t != nil {
			resident++
		}
	}
	if resident == total {
		t.Fatal("reclamation never fired on a chained workload")
	}
	t.Logf("resident %d / produced+inputs %d (reclaimed %d)", resident, total, total-resident)
}

// TestBuildLiveness: every slot counts the operand reads the stream
// performs — a self-pair reads twice — and a pinned slot is marked pinned
// whatever its count. The streams an earlier, ID-keyed count had to
// exclude — an ID written twice, an output that is also an input — no
// constructor makes (workload.TestDecodeValidation).
func TestBuildLiveness(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	w := fromStages(t, "liveness", [][]workload.Pair{
		{{A: d(1), B: d(2), Out: d(10)}},
		{{A: d(10), B: d(2), Out: d(11)}},
		{{A: d(11), B: d(11), Out: d(12)}, {A: d(3), B: d(2), Out: d(13)}},
	}, []tensor.Desc{d(1), d(2), d(3)})
	got := buildLiveness(w, []int{2})
	// Slots: inputs t1 t2 t3, then outputs t10 t11 t12 t13.
	if want := []int32{1, 3, pinned, 1, 2, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("reads by slot %v, want %v", got, want)
	}
}

// TestPinnedTensorsSurviveReclaim: a pinned output that nothing reads is
// dead on production for the liveness count, and must still be resident —
// with the bits of the pairwise oracle, which keeps every tensor — when the
// stream ends.
func TestPinnedTensorsSurviveReclaim(t *testing.T) {
	w := levelStream(t, 3*levelWidth, 2*levelWidth)
	finals := 5 + 3*levelWidth                         // the slot of the first final
	pin := []int{5, finals, finals + 2*levelWidth - 1} // a read intermediate and two finals
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
	for _, s := range pin {
		id := w.TensorIDs()[s]
		got, ok := x.Tensor(s)
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
	if _, ok := x.Tensor(finals + 1); ok {
		t.Error("unpinned second final still resident")
	}
	if a, b := x.Fingerprint(), keep.fp; a != b {
		t.Errorf("fingerprint with pins %x, want %x", a, b)
	}
}

// TestPooledStorageFullyOverwritten: every buffer a run hands back is
// filled with NaN before the next run draws it, and each next run's
// fingerprint and pinned tensors are bit-identical to the pairwise
// oracle's, which contracts into fresh storage — at pool 1, 4 and 8.
func TestPooledStorageFullyOverwritten(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the pools keep what they are handed
	w := levelStream(t, 3*levelWidth, 2*levelWidth)
	finals := 5 + 3*levelWidth // the slot of the first final
	pin := []int{5, finals, finals + 2*levelWidth - 1}
	keep := pairwiseOracle(t, w)
	for round, pool := range []int{1, 1, 4, 8} {
		x, err := New(w, Config{Seed: 5, Workers: pool, Pin: pin})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range w.Stages {
			if err := x.RunStage(context.Background(), st.Pairs); err != nil {
				t.Fatal(err)
			}
		}
		if round > 0 && x.arena.shared == 0 {
			t.Errorf("round %d: drew no buffer from the process-wide tier", round)
		}
		if fp := x.Fingerprint(); math.Float64bits(fp) != math.Float64bits(keep.fp) {
			t.Errorf("round %d pool=%d: fingerprint %x, oracle %x", round, pool, fp, keep.fp)
		}
		for _, s := range pin {
			got, _ := x.Tensor(s)
			want := keep.tensors[x.ids[s]]
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("round %d pool=%d: pinned t%d element %d = %v, oracle %v", round, pool, x.ids[s], i, got.Data[i], want.Data[i])
				}
			}
		}
		PoisonFree(x, math.NaN())
		x.Close()
	}
}
