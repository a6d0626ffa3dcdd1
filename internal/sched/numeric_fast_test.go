package sched

import (
	"context"
	"math"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestFastKernelsFingerprint: Options.FastKernels opts numeric mode into
// the fast kernel tier. The fingerprint must stay within the documented
// accuracy envelope of the exact tier, and — like exact mode — must be
// bit-identical across pool sizes and reclamation settings: fast kernels
// relax the rounding contract, never determinism.
func TestFastKernelsFingerprint(t *testing.T) {
	for _, g := range goldenWorkloads {
		w, err := workload.Generate(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func(fast, reclaim bool, par int) float64 {
			t.Helper()
			c := cluster(t, 2)
			res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{
				Numeric: true, NumericSeed: 13, Parallelism: par,
				NumericReclaim: reclaim, FastKernels: fast,
			})
			if err != nil {
				t.Fatalf("%s fast=%v reclaim=%v par=%d: %v", g.name, fast, reclaim, par, err)
			}
			return res.NumericFingerprint
		}
		exact := run(false, false, 1)
		if math.Float64bits(exact) != math.Float64bits(g.fp) {
			t.Fatalf("%s: exact fingerprint moved: %x, want %x", g.name, exact, g.fp)
		}
		fast := run(true, false, 1)
		// Norm sums agree to far better than this; the tolerance only needs
		// to separate "same numerics modulo rounding" from "wrong numerics".
		if rel := math.Abs(fast-exact) / math.Abs(exact); rel > 1e-10 {
			t.Errorf("%s: fast fingerprint %x vs exact %x (rel %g)", g.name, fast, exact, rel)
		}
		for _, par := range []int{1, 8} {
			for _, reclaim := range []bool{false, true} {
				if got := run(true, reclaim, par); math.Float64bits(got) != math.Float64bits(fast) {
					t.Errorf("%s: fast fingerprint not deterministic: par=%d reclaim=%v got %x, want %x",
						g.name, par, reclaim, got, fast)
				}
			}
		}
	}
}

// TestFusedStageDependentFallback: a hand-built stage whose second pair
// reads the first pair's output is not independent; the executor splits
// the chain into one level per link (numeric.TestLevelPartition), and the
// engine must produce the same bits at every pool width.
func TestFusedStageDependentFallback(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 12, Batch: 2} }
	w := &workload.Workload{
		Name:   "dependent-stage",
		Inputs: []tensor.Desc{d(1), d(2)},
		Stages: []workload.Stage{
			{Index: 0, Pairs: []workload.Pair{
				{A: d(1), B: d(2), Out: d(10)},
				{A: d(10), B: d(2), Out: d(11)}, // reads same-stage output 10
				{A: d(1), B: d(11), Out: d(12)}, // chains further
			}},
		},
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
