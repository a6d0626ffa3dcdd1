package redstar

import (
	"math"
	"math/rand"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestStageOpsIndependent: BuildPlan stages by dependency depth, so in
// every stage it emits no pair reads or rewrites a tensor the same stage
// produces — each stage is a single dependency level and fuses whole.
func TestStageOpsIndependent(t *testing.T) {
	b, err := tiny().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	for si, st := range b.Workload.Stages {
		outs := make(map[uint64]bool, len(st.Pairs))
		for _, p := range st.Pairs {
			if outs[p.Out.ID] {
				t.Errorf("stage %d writes t%d twice", si, p.Out.ID)
			}
			outs[p.Out.ID] = true
		}
		for _, p := range st.Pairs {
			if outs[p.A.ID] || outs[p.B.ID] {
				t.Errorf("stage %d: t%d reads an output of its own stage", si, p.Out.ID)
			}
		}
	}
}

// TestEvaluateNumericDependentStage: a hand-built stream whose first stage
// holds a producer and its consumers evaluates to the bits of contracting
// op by op in stream order, at every worker count — the level partitioner
// orders the chain where BuildPlan's staging would have.
func TestEvaluateNumericDependentStage(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 12, Batch: 2} }
	inputs := []tensor.Desc{d(1), d(2)}
	stages := [][]workload.Pair{
		{
			{A: d(1), B: d(2), Out: d(10)},
			{A: d(10), B: d(2), Out: d(11)}, // reads same-stage output 10
			{A: d(1), B: d(11), Out: d(12)}, // chains further
		},
		{{A: d(12), B: d(10), Out: d(13)}},
	}
	w, err := workload.FromStages("dependent-stage", stages, inputs)
	if err != nil {
		t.Fatal(err)
	}
	b := &Build{Workload: w, FinalsByTime: map[int][]tensor.Desc{1: {d(12)}, 2: {d(13), d(11)}}}

	rng := rand.New(rand.NewSource(7))
	ts := make(map[uint64]*tensor.Tensor)
	for _, in := range inputs {
		if ts[in.ID], err = tensor.NewRandom(in, rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range stages {
		for _, p := range st {
			out := &tensor.Tensor{}
			if err := tensor.ContractInto(out, ts[p.A.ID], ts[p.B.ID], p.Out.ID, 1); err != nil {
				t.Fatal(err)
			}
			ts[p.Out.ID] = out
		}
	}
	want := make(map[int]complex128)
	for tm, fds := range b.FinalsByTime {
		for _, fd := range fds {
			tr, err := ts[fd.ID].Trace()
			if err != nil {
				t.Fatal(err)
			}
			want[tm] += tr
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := b.EvaluateNumeric(7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for tm, w := range want {
			g := got[tm]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Errorf("workers=%d t=%d: correlator %v, want %v", workers, tm, g, w)
			}
		}
	}
}
