package autotune

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

func tinyWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 5, Stages: 2, VectorSize: 8, TensorDim: 64, Batch: 1,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildCorpusParallelMatchesSerial is the determinism contract of the
// parallel corpus builder: randomness is pre-drawn sequentially and samples
// are collected by index, so the dataset and its provenance must be
// identical at any pool size.
func TestBuildCorpusParallelMatchesSerial(t *testing.T) {
	build := func(parallelism int) ([]CorpusSample, [][]float64, [][]float64) {
		t.Helper()
		cfg := smallCorpusCfg()
		cfg.Parallelism = parallelism
		ds, samples, err := BuildCorpusDetailed(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return samples, ds.X, ds.Y
	}
	serialSamples, serialX, serialY := build(1)
	if len(serialSamples) == 0 {
		t.Fatal("serial build produced no samples")
	}
	for _, par := range []int{0, 3, 8} {
		samples, x, y := build(par)
		if !reflect.DeepEqual(x, serialX) || !reflect.DeepEqual(y, serialY) {
			t.Errorf("parallelism %d: dataset diverges from serial", par)
		}
		if !reflect.DeepEqual(samples, serialSamples) {
			t.Errorf("parallelism %d: sample provenance diverges from serial", par)
		}
	}
}

func TestBuildCorpusCancelled(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := smallCorpusCfg()
		cfg.Parallelism = par
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := BuildCorpus(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
}

func TestSweepBoundsCancelled(t *testing.T) {
	w := tinyWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := PressuredCluster(w, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepBounds(ctx, w, c, CandidateBounds, sched.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
