package micco_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"micco"
	"micco/internal/fault"
	"micco/internal/tensor"
)

// byName builds a fresh registry scheduler that needs no predictor.
func byName(t *testing.T, name string) micco.Scheduler {
	t.Helper()
	s, err := micco.NewSchedulerByName(name, micco.Bounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testWorkload(t *testing.T) *micco.Workload {
	t.Helper()
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 1, Stages: 6, VectorSize: 16, TensorDim: 128, Batch: 4,
		Rank: micco.RankMeson, RepeatRate: 0.6, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPublicAPIEndToEnd(t *testing.T) {
	w := testWorkload(t)
	cluster, err := micco.NewCluster(micco.MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	groute, err := micco.Run(context.Background(), w, micco.NewGroute(), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.GFLOPS <= 0 || groute.GFLOPS <= 0 {
		t.Fatal("degenerate results through public API")
	}
	if micco.Speedup(naive, groute) <= 1.0 {
		t.Errorf("MICCO-naive speedup %.2f over Groute, want > 1",
			micco.Speedup(naive, groute))
	}
	fixed, err := micco.Run(context.Background(), w, micco.NewMICCOFixed(micco.Bounds{1, 1, 1}), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.GFLOPS <= 0 {
		t.Error("fixed-bounds run failed")
	}
	for _, s := range []micco.Scheduler{byName(t, "roundrobin"), byName(t, "locality")} {
		if _, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

// TestPublicAPIFaultInjection drives the fault surface end to end through
// the facade: a faulted run matches the fault-free fingerprint, plan
// save/load round-trips, and checkpoint/resume recovers from total
// cluster loss.
func TestPublicAPIFaultInjection(t *testing.T) {
	w := testWorkload(t)
	cluster, err := micco.NewCluster(micco.MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := micco.Run(context.Background(), w, byName(t, "roundrobin"), cluster, micco.RunOptions{Numeric: true, NumericSeed: 7})
	if err != nil {
		t.Fatal(err)
	}

	plan := &micco.FaultPlan{Events: []micco.FaultEvent{
		{Kind: micco.FaultDeviceLoss, Stage: 1, Pair: 1, Device: 2},
		{Kind: fault.LinkDegrade, Stage: 2, Pair: -1, Factor: 0.5},
		{Kind: micco.FaultTransientTransfer, Stage: 3, Pair: 0, Failures: 2},
		{Kind: micco.FaultDeviceRestore, Stage: 4, Pair: -1, Device: 2},
	}}
	var buf strings.Builder
	if err := micco.SaveFaultPlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	plan2, err := micco.LoadFaultPlan(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	faulted, err := micco.Run(context.Background(), w, byName(t, "roundrobin"), cluster,
		micco.RunOptions{Numeric: true, NumericSeed: 7, FaultPlan: plan2})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.NumericFingerprint != clean.NumericFingerprint {
		t.Errorf("faulted fingerprint %v != clean %v", faulted.NumericFingerprint, clean.NumericFingerprint)
	}
	if faulted.Recovery.FaultsInjected != len(plan.Events) {
		t.Errorf("injected %d faults, want %d", faulted.Recovery.FaultsInjected, len(plan.Events))
	}
	if faulted.Recovery.DevicesLost != 1 || faulted.Recovery.DevicesRestored != 1 {
		t.Errorf("lost/restored = %d/%d, want 1/1",
			faulted.Recovery.DevicesLost, faulted.Recovery.DevicesRestored)
	}

	// Lose every device: ErrClusterLost plus a resumable checkpoint.
	fatal := &micco.FaultPlan{Events: []micco.FaultEvent{
		{Kind: micco.FaultDeviceLoss, Stage: 2, Pair: 0, Device: 0},
		{Kind: micco.FaultDeviceLoss, Stage: 2, Pair: 0, Device: 1},
		{Kind: micco.FaultDeviceLoss, Stage: 2, Pair: 0, Device: 2},
		{Kind: micco.FaultDeviceLoss, Stage: 2, Pair: 0, Device: 3},
	}}
	res, err := micco.Run(context.Background(), w, byName(t, "roundrobin"), cluster,
		micco.RunOptions{Numeric: true, NumericSeed: 7, FaultPlan: fatal, Checkpoint: true})
	if !errors.Is(err, micco.ErrClusterLost) {
		t.Fatalf("got %v, want ErrClusterLost", err)
	}
	if res == nil || res.Checkpoint == nil {
		t.Fatal("no checkpoint attached to the failed run")
	}
	fresh, err := micco.NewCluster(micco.MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := micco.Run(context.Background(), w, byName(t, "roundrobin"), fresh,
		micco.RunOptions{Numeric: true, NumericSeed: 7, ResumeFrom: res.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NumericFingerprint != clean.NumericFingerprint {
		t.Errorf("resumed fingerprint %v != clean %v", resumed.NumericFingerprint, clean.NumericFingerprint)
	}
}

func TestPublicAPITrainAndOptimal(t *testing.T) {
	corpus, err := micco.BuildCorpus(context.Background(), micco.CorpusConfig{
		Samples: 20, Seed: 3, NumGPU: 4, Stages: 3, Batch: 2, Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := micco.TrainPredictor(corpus, micco.ForestModel, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	cluster, err := micco.NewCluster(micco.MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := micco.Run(context.Background(), w, micco.NewMICCOOptimal(pred), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 {
		t.Error("MICCO-optimal run failed through public API")
	}
	scores, err := micco.EvaluateModels(corpus, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Errorf("EvaluateModels returned %d scores", len(scores))
	}
}

// TestOptimalRescalesToTheCluster: a predictor trained on an 8-device
// corpus, saved and reloaded, predicts for the cluster it places on.
// MICCO-optimal on four devices publishes, in every bound-gated decision,
// the bound PredictBounds gives the stage's features on four devices, and
// on at least one stage that differs from what eight would give.
func TestOptimalRescalesToTheCluster(t *testing.T) {
	corpus, err := micco.BuildCorpus(context.Background(), micco.CorpusConfig{
		Samples: 20, Seed: 3, Stages: 3, Batch: 2, Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trained, err := micco.TrainPredictor(corpus, micco.ForestModel, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pred, err := micco.LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pred.NumGPU != 8 {
		t.Fatalf("loaded predictor records %d training devices, want 8", pred.NumGPU)
	}

	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 5, Stages: 6, VectorSize: 64, TensorDim: 384, Batch: 4,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Gaussian,
	})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for s := range w.Stages {
		f := w.StageFeatures(s)
		if pred.PredictBounds(f, 4) != pred.PredictBounds(f, 8) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("no stage's bounds depend on the device count: the check below would be vacuous")
	}

	cluster, err := micco.NewCluster(micco.MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	reg := micco.NewMetricsRegistry()
	if _, err := micco.Run(context.Background(), w, micco.NewMICCOOptimal(pred), cluster, micco.RunOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	gated := 0
	for _, r := range reg.Decisions() {
		if r.BoundIndex < 0 {
			continue
		}
		gated++
		want := pred.PredictBounds(w.StageFeatures(int(r.Stage)), 4)[r.BoundIndex]
		if int(r.Bound) != want {
			t.Fatalf("stage %d pair %d: bound[%d] = %d, want %d (the four-device rescale)",
				r.Stage, r.Pair, r.BoundIndex, r.Bound, want)
		}
	}
	if gated == 0 {
		t.Fatal("no bound-gated decision recorded")
	}
}

func TestPublicAPICorrelators(t *testing.T) {
	cs := micco.BundledCorrelators()
	if len(cs) != 3 {
		t.Fatalf("bundled correlators = %d", len(cs))
	}
	c := micco.A1RhoPi()
	c.TimeSlices = 2
	c.Momenta = 2
	c.TensorDim = 8
	c.Batch = 1
	b, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if b.Workload == nil || b.NumGraphs == 0 {
		t.Fatal("correlator build degenerate")
	}
	cluster, err := micco.NewCluster(micco.MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := micco.Run(context.Background(), b.Workload, micco.NewMICCONaive(), cluster, micco.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	corr, err := b.EvaluateNumeric(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 2 {
		t.Errorf("correlator series length %d, want 2", len(corr))
	}
}

func TestPublicAPITensors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := tensor.NewRandom(micco.TensorDesc{ID: 1, Rank: micco.RankMeson, Dim: 8, Batch: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tensor.NewRandom(micco.TensorDesc{ID: 2, Rank: micco.RankMeson, Dim: 8, Batch: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := &micco.Tensor{}
	if err := micco.ContractInto(out, a, b, 3, 2); err != nil {
		t.Fatal(err)
	}
	if out.ID != 3 || out.Dim != 8 {
		t.Errorf("contract output %v", out.Desc)
	}
}

func TestPublicAPICustomOperators(t *testing.T) {
	pi := micco.Meson("pi", "u", "d")
	if len(pi.Quarks) != 2 {
		t.Error("Meson helper")
	}
	if pi.Quarks[0].Bar || !pi.Quarks[1].Bar {
		t.Error("Meson helper: want a quark then an antiquark")
	}
	custom := &micco.Correlator{
		Name: "custom",
		Constructions: []micco.Construction{
			{Name: "pi", Ops: []micco.Operator{micco.Meson("pi", "u", "d")}},
		},
		Momenta: 1, TimeSlices: 2, TensorDim: 8, Batch: 1,
	}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := custom.BuildPlan(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIHarnessQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness runs are slow")
	}
	h := micco.NewHarness(micco.HarnessOptions{Quick: true, Seed: 5})
	ids := micco.ExperimentIDs()
	if len(ids) != 9 {
		t.Fatalf("experiments = %d, want 9 (every table and figure)", len(ids))
	}
	// Smoke-run the two fastest experiments through the public API.
	for _, id := range []string{"tab5", "fig10"} {
		tab, err := h.RunExperiment(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), tab.ID) {
			t.Errorf("%s render missing ID", id)
		}
		var csv strings.Builder
		if err := tab.CSV(&csv); err != nil {
			t.Fatal(err)
		}
		if len(csv.String()) == 0 {
			t.Errorf("%s CSV empty", id)
		}
	}
}
