package autotune

import (
	"context"
	"errors"
	"testing"

	"micco/internal/core"
	"micco/internal/mlearn"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

func smallCorpusCfg() CorpusConfig {
	return CorpusConfig{Samples: 24, Seed: 1, NumGPU: 4, Stages: 3, Batch: 2}
}

func TestCandidateBoundsShape(t *testing.T) {
	if len(CandidateBounds) != 13 {
		t.Fatalf("CandidateBounds = %d settings, want the paper's 13", len(CandidateBounds))
	}
	seen := make(map[core.Bounds]bool)
	for _, b := range CandidateBounds {
		if seen[b] {
			t.Errorf("duplicate candidate %v", b)
		}
		seen[b] = true
		for _, v := range b {
			if v < 0 || v > 2 {
				t.Errorf("candidate %v outside [0,2]", b)
			}
		}
	}
	if !seen[(core.Bounds{0, 0, 0})] {
		t.Error("the all-zero (MICCO-naive) setting must be a candidate")
	}
}

func TestBuildCorpusShapeAndDeterminism(t *testing.T) {
	ds, err := BuildCorpus(context.Background(), smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 24 {
		t.Fatalf("corpus size = %d, want 24", ds.Len())
	}
	if ds.NumFeatures() != 4 || ds.NumOutputs() != 3 {
		t.Fatalf("corpus shape = %dx%d, want 4x3", ds.NumFeatures(), ds.NumOutputs())
	}
	for i := range ds.Y {
		maxSlack := float64(2*64 - 2*64/4) // largest possible slack on this grid
		for j, v := range ds.Y[i] {
			if v < 0 || v > maxSlack {
				t.Errorf("label %d[%d] = %v: want value in [0,%v]", i, j, v, maxSlack)
			}
		}
		f := ds.X[i]
		if f[0] < 8 || f[0] > 64 || f[1] < 128 || f[1] > 768 {
			t.Errorf("features %d = %v outside evaluation grid", i, f)
		}
		if f[2] != 0 && f[2] != 1 {
			t.Errorf("distribution bias %v not boolean", f[2])
		}
		if f[3] < 0 || f[3] > 1 {
			t.Errorf("repeat rate %v outside [0,1]", f[3])
		}
	}
	ds2, err := BuildCorpus(context.Background(), smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		for j := range ds.X[i] {
			if ds.X[i][j] != ds2.X[i][j] {
				t.Fatal("corpus generation not deterministic")
			}
		}
	}
}

func TestSweepBoundsFindsArgmax(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 5, Stages: 3, VectorSize: 16, TensorDim: 128, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.75, Dist: workload.Gaussian,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := PressuredCluster(w, 4, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepBounds(context.Background(), w, c, CandidateBounds, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(CandidateBounds) {
		t.Fatalf("results = %d, want one per candidate", len(res))
	}
	best := 0
	for i, r := range res {
		if r.GFLOPS <= 0 {
			t.Errorf("candidate %v yielded %v GFLOPS", CandidateBounds[i], r.GFLOPS)
		}
		if want := core.NewFixed(CandidateBounds[i]).Name(); r.Scheduler != want {
			t.Errorf("result %d ran %q, want %q", i, r.Scheduler, want)
		}
		if r.GFLOPS > res[best].GFLOPS {
			best = i
		}
	}
	// The sweep shares one cluster across settings; the argmax setting run
	// alone on a fresh cluster must reproduce its swept throughput.
	fresh, err := PressuredCluster(w, 4, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := SweepBounds(context.Background(), w, fresh, CandidateBounds[best:best+1], sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if alone[0].GFLOPS != res[best].GFLOPS {
		t.Errorf("argmax %v: %v GFLOPS alone, %v in the sweep", CandidateBounds[best], alone[0].GFLOPS, res[best].GFLOPS)
	}
}

// TestOneGPUCorpusHasFiniteTargets: a one-device node has zero slack, which
// used to divide every soft label into +Inf (miccotrain -gpus 1 trained on
// garbage); zero slack means zero fractions.
func TestOneGPUCorpusHasFiniteTargets(t *testing.T) {
	ds, err := BuildCorpus(context.Background(), CorpusConfig{Samples: 3, Seed: 1, NumGPU: 1, Stages: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range ds.Y {
		for j, v := range y {
			if v != 0 {
				t.Errorf("Y[%d][%d] = %v, want 0 on a node with no slack", i, j, v)
			}
		}
	}
}

func TestPressuredCluster(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 6, Stages: 2, VectorSize: 8, TensorDim: 64, Batch: 1,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := PressuredCluster(w, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	total := 4 * c.Config().MemoryBytes
	if total < w.TotalUniqueBytes() {
		t.Errorf("pressure 0.5 should give headroom: aggregate %d < working set %d",
			total, w.TotalUniqueBytes())
	}
	// Oversubscribed sizing still fits a single contraction.
	c2, err := PressuredCluster(w, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	minNeeded := 3 * w.Inputs[0].Bytes()
	if c2.Config().MemoryBytes < minNeeded {
		t.Errorf("pool %d below single-contraction floor %d", c2.Config().MemoryBytes, minNeeded)
	}
	// pressure <= 0 keeps stock pools.
	c3, err := PressuredCluster(w, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Config().MemoryBytes != 32<<30 {
		t.Error("pressure 0 should keep the stock 32 GiB pool")
	}
}

func TestTrainAndPredictorClamps(t *testing.T) {
	ds, err := BuildCorpus(context.Background(), smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(ds, ForestModel, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	probe := workload.Features{VectorSize: 64, TensorDim: 384, DistBias: 1, RepeatRate: 0.5}
	b := p.PredictBounds(probe, 8)
	for _, v := range b {
		if v < 0 || v > 128 {
			t.Errorf("predicted bound %v outside [0,128]", b)
		}
	}
	// Out-of-domain features clamp into the training hull, so the bounds
	// stay within the smallest grid stage's slack.
	wild := workload.Features{VectorSize: -3, TensorDim: -5, DistBias: 7, RepeatRate: 99}
	b2 := p.PredictBounds(wild, 8)
	for _, v := range b2 {
		if v < 0 || v > MaxSlack(16, 8) {
			t.Errorf("wild prediction %v escaped the clamped range", b2)
		}
	}
	// Huge stage widths must not explode the rescale either.
	huge := workload.Features{VectorSize: 1000, TensorDim: 256, DistBias: 1, RepeatRate: 0.9}
	b3 := p.PredictBounds(huge, 8)
	for _, v := range b3 {
		if v < 0 || v > MaxSlack(128, 8) {
			t.Errorf("huge-stage prediction %v escaped the clamped range", b3)
		}
	}
}

func TestEvaluateModelsOrderingAndNames(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus labeling sweep is slow")
	}
	// A realistic corpus (paper-scale node, fixed pools) is needed for the
	// Table IV ordering to emerge; tiny corpora are dominated by label
	// noise.
	ds, err := BuildCorpus(context.Background(), CorpusConfig{Samples: 120, Seed: 99, Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := EvaluateModels(ds, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %d, want 3", len(scores))
	}
	byKind := map[ModelKind]float64{}
	for _, s := range scores {
		byKind[s.Kind] = s.R2
		if s.R2 > 1.0 {
			t.Errorf("%v R2 = %v > 1", s.Kind, s.R2)
		}
	}
	// Table IV shape: the Random Forest is competitive with or better
	// than linear regression (exact ordering needs the full 300-sample
	// corpus; see the Tab4 experiment), and all models carry real signal.
	if byKind[ForestModel] < byKind[LinearModel]-0.05 {
		t.Errorf("forest (%.3f) should be competitive with linear (%.3f)",
			byKind[ForestModel], byKind[LinearModel])
	}
	for k, r2 := range byKind {
		if r2 < 0.15 {
			t.Errorf("%v R2 = %.3f: labels carry no signal", k, r2)
		}
	}
	if LinearModel.String() != "Linear Regression" ||
		BoostingModel.String() != "Gradient Boosting" ||
		ForestModel.String() != "Random Forest" {
		t.Error("model names wrong")
	}
	if ModelKind(9).String() == "" {
		t.Error("unknown model kind should still print")
	}
}

func TestOptimalSchedulerWithTrainedPredictorRuns(t *testing.T) {
	ds, err := BuildCorpus(context.Background(), smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(ds, ForestModel, 0.2, 17)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Seed: 8, Stages: 4, VectorSize: 16, TensorDim: 128, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := PressuredCluster(w, 4, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(context.Background(), w, core.NewOptimal(p), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 {
		t.Error("MICCO-optimal run produced no throughput")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(&mlearn.Dataset{}, ForestModel, 0.2, 1); err == nil {
		t.Error("empty corpus: want error")
	}
}

// TestEvaluateModelsRefusesEmptyHeldOutSet: a split that holds nothing
// out is refused rather than scored R2 0 for every model.
func TestEvaluateModelsRefusesEmptyHeldOutSet(t *testing.T) {
	ds := &mlearn.Dataset{}
	for i := 0; i < 10; i++ {
		ds.Add([]float64{float64(i)}, []float64{float64(2 * i)})
	}
	for _, frac := range []float64{0, -0.5, 0.05} {
		if scores, err := EvaluateModels(ds, frac, 1); !errors.Is(err, mlearn.ErrEmpty) {
			t.Errorf("test fraction %v: scores %v, err %v; want an error wrapping mlearn.ErrEmpty", frac, scores, err)
		}
	}
	if _, err := EvaluateModels(nil, 0.2, 1); !errors.Is(err, sched.ErrNilArgument) {
		t.Errorf("nil corpus: err %v, want one wrapping sched.ErrNilArgument", err)
	}
	scores, err := EvaluateModels(ds, 0.2, 1)
	if err != nil || len(scores) != 3 {
		t.Errorf("two held out of ten: scores %v, err %v; want three scores", scores, err)
	}
}
