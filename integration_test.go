package micco_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"micco"
	"micco/internal/gpusim"
	"micco/internal/obs"
)

// TestFullPipelineIntegration drives the complete stack through the public
// API: train and persist a reuse-bound model, build a correlator through
// the Wick front end, schedule it on a traced single-node cluster and on
// two nodes, and run the spectroscopy analysis on its
// numeric evaluation.
func TestFullPipelineIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}

	// 1. Offline: build a corpus and train the Random Forest.
	corpus, err := micco.BuildCorpus(context.Background(), micco.CorpusConfig{
		Samples: 30, Seed: 9, NumGPU: 4, Stages: 3, Batch: 2, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := micco.TrainPredictor(corpus, micco.ForestModel, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist and reload the model, as a deployment would.
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := micco.LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Front end: build a small correlator.
	corr := micco.A1RhoPi()
	corr.TimeSlices = 4
	corr.Momenta = 2
	corr.TensorDim = 192 // large enough that transfers dominate launches
	corr.Batch = 4
	build, err := corr.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}

	// 4. Single node with tracing: MICCO-optimal must beat Groute.
	cfg := micco.MI100(4)
	cfg.MemoryBytes = int64(1.2 * float64(build.Plan.TotalUniqueBytes()))
	cluster, err := micco.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groute, err := micco.Run(context.Background(), build.Workload, micco.NewGroute(), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.StartTrace()
	opt, err := micco.Run(context.Background(), build.Workload, micco.NewMICCOOptimal(loaded), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events := cluster.StopTrace()
	if micco.Speedup(opt, groute) <= 1.0 {
		t.Errorf("MICCO-optimal %.0f vs Groute %.0f: no speedup on correlator data",
			opt.GFLOPS, groute.GFLOPS)
	}
	if len(events) == 0 {
		t.Fatal("trace captured no events")
	}
	kernels := 0
	for _, e := range events {
		if e.Kind == obs.EventKernel {
			kernels++
		}
	}
	if kernels != build.Workload.NumPairs() {
		t.Errorf("traced %d kernels, want %d", kernels, build.Workload.NumPairs())
	}
	var chrome bytes.Buffer
	if err := gpusim.WriteChromeTraceMerged(&chrome, events, nil); err != nil {
		t.Fatal(err)
	}
	if chrome.Len() == 0 {
		t.Error("trace export empty")
	}

	// 5. Two nodes of two GPUs, placed by the two-level scheduler.
	mcfg := micco.MI100Nodes(2, 2)
	mcfg.MemoryBytes = cfg.MemoryBytes
	mc, err := micco.NewCluster(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := micco.Run(context.Background(), build.Workload, micco.NewHier(16, micco.Bounds{0, 2, 0}), mc, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mres.GFLOPS <= 0 {
		t.Error("multi-node run degenerate")
	}

	// 6. Physics: numeric evaluation (on a scaled-down copy — real
	// arithmetic is the expensive part) plus spectroscopy analysis.
	small := *corr
	small.TensorDim, small.Batch = 16, 1
	smallBuild, err := small.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	series, err := smallBuild.EvaluateNumeric(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != corr.TimeSlices {
		t.Fatalf("series has %d times, want %d", len(series), corr.TimeSlices)
	}
	meff := micco.EffectiveMass(micco.CorrelatorSeries(series))
	if len(meff) != corr.TimeSlices-1 {
		t.Errorf("m_eff points = %d, want %d", len(meff), corr.TimeSlices-1)
	}
	// Sanity of the analysis chain on a known signal.
	synth := micco.SyntheticCorrelator(3, 0.5, 1, 8)
	_, mass, err := micco.FitCorrelator(synth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mass-0.5) > 1e-9 {
		t.Errorf("fit mass = %v, want 0.5", mass)
	}
}

// TestNumericSchedulingAgreement verifies end to end that scheduling
// decisions never change numerical results: the same workload run under
// three different schedulers yields one numeric fingerprint.
func TestNumericSchedulingAgreement(t *testing.T) {
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 13, Stages: 3, VectorSize: 6, TensorDim: 24, Batch: 2,
		Rank: micco.RankMeson, RepeatRate: 0.6, Dist: micco.Gaussian,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := micco.NewCluster(micco.MI100(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := micco.RunOptions{Numeric: true, NumericSeed: 4}
	var prints []float64
	for _, s := range []micco.Scheduler{
		micco.NewGroute(), micco.NewMICCONaive(), byName(t, "roundrobin"),
	} {
		res, err := micco.Run(context.Background(), w, s, cluster, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		prints = append(prints, res.NumericFingerprint)
	}
	if prints[0] == 0 {
		t.Fatal("zero fingerprint")
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Errorf("fingerprint %d differs: %v vs %v", i, prints[i], prints[0])
		}
	}
}
