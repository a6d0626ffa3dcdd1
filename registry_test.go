package micco_test

import (
	"context"
	"errors"
	"testing"

	"micco"
)

// stubPredictor satisfies BoundsPredictor without training a model.
type stubPredictor struct{}

func (stubPredictor) PredictBounds(micco.Features, int) micco.Bounds { return micco.Bounds{0, 1, 0} }

func TestSchedulerNamesStable(t *testing.T) {
	want := []string{"micco", "micco-naive", "micco-optimal", "hier", "groute", "roundrobin", "locality"}
	got := micco.SchedulerNames()
	if len(got) != len(want) {
		t.Fatalf("SchedulerNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SchedulerNames() = %v, want %v", got, want)
		}
	}
}

func TestNewSchedulerByNameBuildsEveryEntry(t *testing.T) {
	for _, name := range micco.SchedulerNames() {
		s, err := micco.NewSchedulerByName(name, micco.Bounds{0, 2, 0}, stubPredictor{})
		if err != nil || s == nil {
			t.Errorf("NewSchedulerByName(%q): %v", name, err)
		}
	}
}

func TestNewSchedulerByNameErrors(t *testing.T) {
	if _, err := micco.NewSchedulerByName("heft", micco.Bounds{}, nil); !errors.Is(err, micco.ErrUnknownScheduler) {
		t.Errorf("unknown name: err = %v, want ErrUnknownScheduler", err)
	}
	if _, err := micco.NewSchedulerByName("micco-optimal", micco.Bounds{}, nil); !errors.Is(err, micco.ErrNilArgument) {
		t.Errorf("optimal without predictor: err = %v, want ErrNilArgument", err)
	}
}

func TestSchedulerNeedsPredictor(t *testing.T) {
	if !micco.SchedulerNeedsPredictor("micco-optimal") {
		t.Error("micco-optimal should need a predictor")
	}
	for _, name := range []string{"micco", "micco-naive", "hier", "groute", "roundrobin", "locality", "heft"} {
		if micco.SchedulerNeedsPredictor(name) {
			t.Errorf("%q should not need a predictor", name)
		}
	}
}

// TestRegistrySchedulersRun runs every registry scheduler end to end and
// checks that registry-built instances behave like the dedicated
// constructors.
func TestRegistrySchedulersRun(t *testing.T) {
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 4, Stages: 3, VectorSize: 8, TensorDim: 32, Batch: 1,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := micco.NewCluster(micco.MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range micco.SchedulerNames() {
		s, err := micco.NewSchedulerByName(name, micco.Bounds{0, 2, 0}, stubPredictor{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.GFLOPS <= 0 {
			t.Errorf("%s: degenerate run %+v", name, res)
		}
	}
}

func TestPublicAPICancellation(t *testing.T) {
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 4, Stages: 2, VectorSize: 6, TensorDim: 32, Batch: 1,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cluster, err := micco.NewCluster(micco.MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := micco.Run(ctx, w, micco.NewGroute(), cluster, micco.RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run: err = %v, want context.Canceled", err)
	}

	if _, err := micco.BuildCorpus(ctx, micco.CorpusConfig{Samples: 4, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildCorpus: err = %v, want context.Canceled", err)
	}

	h := micco.NewHarness(micco.HarnessOptions{Quick: true, Seed: 7})
	if _, err := h.RunExperiment(ctx, "fig9"); !errors.Is(err, context.Canceled) {
		t.Errorf("RunExperiment: err = %v, want context.Canceled", err)
	}
}

func TestPublicSentinelErrors(t *testing.T) {
	cluster, err := micco.NewCluster(micco.MI100(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := micco.Run(context.Background(), nil, micco.NewGroute(), cluster, micco.RunOptions{}); !errors.Is(err, micco.ErrNilArgument) {
		t.Errorf("nil workload: err = %v, want ErrNilArgument", err)
	}
}
