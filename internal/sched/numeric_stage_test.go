package sched

import (
	"context"
	"math"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestFusedStageDependentFallback: a FromStages stage whose second pair
// reads the first pair's output is not independent; the executor splits
// the chain into one level per link (numeric.TestLevelPartition), and the
// engine must produce the same bits at every pool width.
func TestFusedStageDependentFallback(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 12, Batch: 2} }
	w, err := workload.FromStages("dependent-stage", [][]workload.Pair{{
		{A: d(1), B: d(2), Out: d(10)},
		{A: d(10), B: d(2), Out: d(11)}, // reads same-stage output 10
		{A: d(1), B: d(11), Out: d(12)}, // chains further
	}}, []tensor.Desc{d(1), d(2)})
	if err != nil {
		t.Fatal(err)
	}
	fp := func(par int) float64 {
		t.Helper()
		c := cluster(t, 2)
		res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{
			Numeric: true, NumericSeed: 5, Parallelism: par,
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res.NumericFingerprint
	}
	want := fp(1)
	if want == 0 {
		t.Fatal("zero fingerprint")
	}
	if got := fp(8); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("width-8 fingerprint %x, want %x", got, want)
	}
}
