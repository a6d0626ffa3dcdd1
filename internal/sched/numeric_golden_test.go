package sched

import (
	"context"
	"math"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// goldenWorkloads are the seeded workloads whose numeric fingerprints are
// pinned below. The hex-float constants were captured from the engine
// before the split-complex kernel and the arena existed; the kernel
// rewrite preserves each output element's accumulation order, so these
// must never drift — at any pool size, with reclamation on or off.
var goldenWorkloads = []struct {
	name string
	cfg  workload.Config
	fp   float64
}{
	{
		name: "meson",
		cfg:  workload.Config{Seed: 7, Stages: 4, VectorSize: 8, TensorDim: 24, Batch: 2, Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform},
		fp:   0x1.263b87d228974p+12, // 4707.720659407194
	},
	{
		name: "baryon",
		cfg:  workload.Config{Seed: 9, Stages: 3, VectorSize: 6, TensorDim: 7, Batch: 2, Rank: tensor.RankBaryon, RepeatRate: 0.4, Dist: workload.Gaussian},
		fp:   0x1.667ad2ec208bap+10, // 1433.9191236799074
	},
}

// TestNumericFingerprintGolden pins the engine's numerics bit for bit:
// pool sizes 1 and 8, reclamation off and on, against pre-kernel-rewrite
// captures.
func TestNumericFingerprintGolden(t *testing.T) {
	for _, g := range goldenWorkloads {
		w, err := workload.Generate(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			for _, reclaim := range []bool{false, true} {
				c := cluster(t, 2)
				res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{
					Numeric: true, NumericSeed: 13, Parallelism: par, NumericReclaim: reclaim,
				})
				if err != nil {
					t.Fatalf("%s par=%d reclaim=%v: %v", g.name, par, reclaim, err)
				}
				if got := res.NumericFingerprint; math.Float64bits(got) != math.Float64bits(g.fp) {
					t.Errorf("%s par=%d reclaim=%v: fingerprint = %.17g (%x), want %.17g (%x)",
						g.name, par, reclaim, got, got, g.fp, g.fp)
				}
			}
		}
	}
}

// TestNumericReclaimMatchesKeep sweeps random chained workloads: the
// fingerprint with reclamation must equal the keep-everything fingerprint
// at every pool size.
func TestNumericReclaimMatchesKeep(t *testing.T) {
	for _, stages := range []int{1, 5} {
		w := smallWorkload(t, stages, 8)
		fp := func(par int, reclaim bool) float64 {
			t.Helper()
			c := cluster(t, 3)
			res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{
				Numeric: true, NumericSeed: 3, Parallelism: par, NumericReclaim: reclaim,
			})
			if err != nil {
				t.Fatalf("stages=%d par=%d reclaim=%v: %v", stages, par, reclaim, err)
			}
			return res.NumericFingerprint
		}
		want := fp(1, false)
		for _, par := range []int{1, 4, 8} {
			if got := fp(par, true); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("stages=%d par=%d: reclaim fingerprint %x, want %x", stages, par, got, want)
			}
		}
	}
}
