package micco_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"micco"
	"micco/internal/tensor"
)

// benchHarness is shared across benchmarks so the reuse-bound model is
// trained once; quick mode keeps sweep sizes benchmark-friendly while
// exercising the same code paths as the full paper runs.
var (
	benchOnce    sync.Once
	benchH       *micco.Harness
	benchPrepErr error
)

func harness(b *testing.B) *micco.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchH = micco.NewHarness(micco.HarnessOptions{Quick: true, Seed: 2022})
		_, benchPrepErr = benchH.Predictor(context.Background()) // train once, outside timing
	})
	if benchPrepErr != nil {
		b.Fatal(benchPrepErr)
	}
	return benchH
}

func benchExperiment(b *testing.B, id string) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := h.RunExperiment(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig5Spearman regenerates the Spearman correlation heatmap of
// data characteristics, reuse bounds and GFLOPS (paper Fig. 5).
func BenchmarkFig5Spearman(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkTab4Regression regenerates the regression-model comparison
// (paper Table IV) on the quick corpus.
func BenchmarkTab4Regression(b *testing.B) { benchExperiment(b, "tab4") }

// BenchmarkFig7Overall regenerates the overall-performance sweep
// (paper Fig. 7): Groute vs MICCO-naive vs MICCO-optimal.
func BenchmarkFig7Overall(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTab5Overhead regenerates the scheduling-overhead measurement
// (paper Table V).
func BenchmarkTab5Overhead(b *testing.B) { benchExperiment(b, "tab5") }

// BenchmarkFig8ReuseBounds regenerates the reuse-bound sweep
// (paper Fig. 8): thirteen bound settings across three cases.
func BenchmarkFig8ReuseBounds(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9Scalability regenerates the 1-8 GPU scalability study
// (paper Fig. 9).
func BenchmarkFig9Scalability(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10TensorSize regenerates the tensor-size study
// (paper Fig. 10).
func BenchmarkFig10TensorSize(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Oversubscription regenerates the memory-oversubscription
// study (paper Fig. 11).
func BenchmarkFig11Oversubscription(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTab6Redstar regenerates the real-correlator case study
// (paper Table VI) through the Wick/graph/Redstar front end.
func BenchmarkTab6Redstar(b *testing.B) { benchExperiment(b, "tab6") }

// --- component benchmarks and ablations -----------------------------------

func benchWorkload(b *testing.B) *micco.Workload {
	b.Helper()
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 1, Stages: 10, VectorSize: 64, TensorDim: 384, Batch: 8,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSchedulerMICCO measures MICCO's end-to-end scheduling and
// simulation throughput; b.N counts whole 640-contraction workload runs.
func BenchmarkSchedulerMICCO(b *testing.B) {
	w := benchWorkload(b)
	cluster, err := micco.NewCluster(micco.MI100(8))
	if err != nil {
		b.Fatal(err)
	}
	s := micco.NewMICCOFixed(micco.Bounds{0, 2, 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerGroute is the baseline counterpart of
// BenchmarkSchedulerMICCO.
func BenchmarkSchedulerGroute(b *testing.B) {
	w := benchWorkload(b)
	cluster, err := micco.NewCluster(micco.MI100(8))
	if err != nil {
		b.Fatal(err)
	}
	s := micco.NewGroute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPeerFetch measures the design alternative the default
// config disables: sourcing repeated tensors over a peer-to-peer fabric
// instead of staging through the host (DESIGN.md ablation).
func BenchmarkAblationPeerFetch(b *testing.B) {
	w := benchWorkload(b)
	for _, peer := range []struct {
		name string
		on   bool
	}{{"HostStaged", false}, {"PeerFetch", true}} {
		b.Run(peer.name, func(b *testing.B) {
			cfg := micco.MI100(8)
			cfg.PeerFetch = peer.on
			cluster, err := micco.NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := micco.NewMICCOFixed(micco.Bounds{0, 2, 0})
			var gflops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				gflops = res.GFLOPS
			}
			b.ReportMetric(gflops, "simGFLOPS")
		})
	}
}

// BenchmarkAblationDeadTensorDiscard measures the liveness-based discard
// optimization (dropping inputs after their final consumer) against the
// paper's keep-everything-resident policy, under memory pressure.
func BenchmarkAblationDeadTensorDiscard(b *testing.B) {
	w := benchWorkload(b)
	for _, mode := range []struct {
		name    string
		discard bool
	}{{"KeepResident", false}, {"DiscardDead", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := micco.MI100(8)
			cfg.MemoryBytes = w.TotalUniqueBytes() / 8 // oversubscribed
			cluster, err := micco.NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := micco.NewMICCOFixed(micco.Bounds{0, 2, 0})
			var gflops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{DiscardDeadInputs: mode.discard})
				if err != nil {
					b.Fatal(err)
				}
				gflops = res.GFLOPS
			}
			b.ReportMetric(gflops, "simGFLOPS")
		})
	}
}

// randomTensor allocates a tensor of shape d with seeded random entries.
func randomTensor(d micco.TensorDesc, seed int64) (*micco.Tensor, error) {
	return tensor.NewRandom(d, rand.New(rand.NewSource(seed)))
}

// BenchmarkContractionKernel measures the real complex batched matrix
// multiply used in numeric mode.
func BenchmarkContractionKernel(b *testing.B) {
	x, err := randomTensor(micco.TensorDesc{ID: 1, Rank: micco.RankMeson, Dim: 128, Batch: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	y, err := randomTensor(micco.TensorDesc{ID: 2, Rank: micco.RankMeson, Dim: 128, Batch: 4}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.Contract(x, y, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContractionKernelInto measures the pooled contraction path:
// same workload as BenchmarkContractionKernel, but writing into a reused
// destination. A single-worker call allocates nothing
// (TestContractIntoSteadyStateAllocs pins that); this one runs at
// GOMAXPROCS workers, so every call spawns a goroutine per worker, and
// their cost is what allocs/op shows.
func BenchmarkContractionKernelInto(b *testing.B) {
	x, err := randomTensor(micco.TensorDesc{ID: 1, Rank: micco.RankMeson, Dim: 128, Batch: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	y, err := randomTensor(micco.TensorDesc{ID: 2, Rank: micco.RankMeson, Dim: 128, Batch: 4}, 2)
	if err != nil {
		b.Fatal(err)
	}
	dst := &micco.Tensor{}
	if err := micco.ContractInto(dst, x, y, 3, 0); err != nil { // warm dst + pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := micco.ContractInto(dst, x, y, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContractionStage measures a stage-shaped fan-out — one shared
// operand feeding several contractions — pairwise through ContractInto
// versus as one batch: through ContractBatch, which builds a pipeline per
// call, and through a held BatchPipeline, which is what the numeric
// executor is. A batch runs the same group products as the pairwise path,
// one (op, group) work item each on the pool's parallel-for, so the rows
// differ only in how the work reaches the workers.
func BenchmarkContractionStage(b *testing.B) {
	const fanOut = 4
	shared, err := randomTensor(micco.TensorDesc{ID: 1, Rank: micco.RankMeson, Dim: 128, Batch: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]*micco.Tensor, fanOut)
	for i := range rhs {
		if rhs[i], err = randomTensor(micco.TensorDesc{ID: uint64(2 + i), Rank: micco.RankMeson, Dim: 128, Batch: 4}, int64(2+i)); err != nil {
			b.Fatal(err)
		}
	}
	dsts := make([]*micco.Tensor, fanOut)
	for i := range dsts {
		dsts[i] = &micco.Tensor{}
	}
	// One ops slice reused across iterations: a batch only reads it, and a
	// held pipeline keeps its work list and pack buffers, so the
	// steady-state parallel row performs zero allocations per stage.
	ops := make([]micco.BatchOp, fanOut)
	for i := range ops {
		ops[i] = micco.BatchOp{Dst: dsts[i], A: shared, B: rhs[i], OutID: uint64(100 + i)}
	}
	// The sub-benchmark names keep their "fused" and "/exact" parts:
	// BENCH_kernel.json and its baseline record them under those names.
	b.Run("pairwise/exact", func(b *testing.B) {
		for i := range dsts { // warm destinations + pools
			if err := micco.ContractInto(dsts[i], shared, rhs[i], uint64(100+i), 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range dsts {
				if err := micco.ContractInto(dsts[i], shared, rhs[i], uint64(100+i), 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fused/exact", func(b *testing.B) {
		if err := micco.ContractBatch(ops, 0); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := micco.ContractBatch(ops, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel/fused/exact", func(b *testing.B) {
		// The cooperative pipeline at the paper's 8-worker pool width.
		// On multi-core hosts the fan-out's group products spread
		// across the pool; a single-CPU host (GOMAXPROCS=1) degenerates
		// to the serial path plus hand-off overhead.
		p := tensor.NewBatchPipeline(8)
		defer p.Close()
		if err := p.Run(ops); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := p.Run(ops); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNumericRun measures the numeric engine on the job the ladder's
// deck_numeric workload times: al_rhopi at 4 time slices and batch 2
// (tensor size 128), scheduled by fixed-bound MICCO on 8 devices and
// contracted with reclamation on at the default pool width. ns/op is the
// schedule-plus-contract time of one job; B/op is what the engine
// allocates for it, which is what bounded-width level execution keeps
// near the live set (make benchguard gates both).
func BenchmarkNumericRun(b *testing.B) {
	b.Run("al_rhopi_t4", func(b *testing.B) {
		c := micco.A1RhoPi()
		c.TimeSlices, c.Batch = 4, 2
		build, err := c.BuildPlan()
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := micco.NewCluster(micco.MI100(8))
		if err != nil {
			b.Fatal(err)
		}
		opts := micco.RunOptions{Numeric: true, NumericSeed: 2022}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := micco.NewMICCOFixed(micco.Bounds{0, 2, 0})
			if _, err := micco.Run(context.Background(), build.Workload, s, cluster, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWickExpansion measures the Wick-contraction front end compiling
// the bundled al_rhopi correlator into a staged plan.
func BenchmarkWickExpansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := micco.A1RhoPi()
		c.TimeSlices = 4
		if _, err := c.BuildPlan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAsyncCopy measures the paper's future-work async-copy
// extension: per-device copy engines overlapping transfers with kernels.
func BenchmarkAblationAsyncCopy(b *testing.B) {
	w := benchWorkload(b)
	for _, mode := range []struct {
		name  string
		async bool
	}{{"SyncCopy", false}, {"AsyncCopy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := micco.MI100(8)
			cfg.AsyncCopy = mode.async
			cluster, err := micco.NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := micco.NewMICCOFixed(micco.Bounds{0, 2, 0})
			var gflops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				gflops = res.GFLOPS
			}
			b.ReportMetric(gflops, "simGFLOPS")
		})
	}
}
