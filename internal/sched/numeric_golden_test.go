package sched

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// goldenWorkloads are the seeded workloads whose numeric fingerprints are
// pinned below. The hex-float constants were captured from the engine
// before the split-complex kernel and the arena existed; the kernel
// rewrite preserves each output element's accumulation order, so these
// must never drift — at any pool size.
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
// pool sizes 1 and 8 against pre-kernel-rewrite captures.
func TestNumericFingerprintGolden(t *testing.T) {
	for _, g := range goldenWorkloads {
		w, err := workload.Generate(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			c := cluster(t, 2)
			res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{
				Numeric: true, NumericSeed: 13, Parallelism: par,
			})
			if err != nil {
				t.Fatalf("%s par=%d: %v", g.name, par, err)
			}
			if got := res.NumericFingerprint; math.Float64bits(got) != math.Float64bits(g.fp) {
				t.Errorf("%s par=%d: fingerprint = %.17g (%x), want %.17g (%x)",
					g.name, par, got, got, g.fp, g.fp)
			}
		}
	}
}

// TestNumericReclaimMatchesKeep sweeps random chained workloads: the
// engine's fingerprint, whose executor frees every tensor after its last
// reader, must equal that of a store keeping every tensor at every pool
// size.
func TestNumericReclaimMatchesKeep(t *testing.T) {
	for _, stages := range []int{1, 5} {
		w := smallWorkload(t, stages, 8)
		want := keepEverythingFingerprint(t, w, 3)
		for _, par := range []int{1, 4, 8} {
			res, err := Run(context.Background(), w, &spreadScheduler{}, cluster(t, 3), Options{
				Numeric: true, NumericSeed: 3, Parallelism: par,
			})
			if err != nil {
				t.Fatalf("stages=%d par=%d: %v", stages, par, err)
			}
			if got := res.NumericFingerprint; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("stages=%d par=%d: fingerprint %x, keep-everything %x", stages, par, got, want)
			}
		}
	}
}

// keepEverythingFingerprint contracts w pair by pair in stream order into
// a store that keeps every tensor, inputs drawn from seed as the numeric
// executor draws them, and sums every tensor's norm in ID order.
func keepEverythingFingerprint(t *testing.T, w *workload.Workload, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store := make(map[uint64]*tensor.Tensor)
	for _, d := range w.Inputs {
		x, err := tensor.NewRandom(d, rng)
		if err != nil {
			t.Fatal(err)
		}
		store[d.ID] = x
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			out, err := tensor.Contract(store[p.A.ID], store[p.B.ID], p.Out.ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			store[p.Out.ID] = out
		}
	}
	ids := make([]uint64, 0, len(store))
	for id := range store {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var sum float64
	for _, id := range ids {
		sum += store[id].Norm()
	}
	return sum
}
