package autotune

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"micco/internal/mlearn"
	"micco/internal/workload"
)

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	ds, err := BuildCorpus(context.Background(), smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(ds, ForestModel, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.NumGPU = 4
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != p.Kind || back.NumGPU != 4 || back.TestR2 != p.TestR2 {
		t.Errorf("metadata changed: %+v vs %+v", back, p)
	}
	probes := []workload.Features{
		{VectorSize: 8, TensorDim: 128, DistBias: 0, RepeatRate: 0.25},
		{VectorSize: 64, TensorDim: 384, DistBias: 1, RepeatRate: 0.75},
		{VectorSize: 32, TensorDim: 768, DistBias: 0, RepeatRate: 1.0},
	}
	for _, f := range probes {
		for _, n := range []int{1, 4, 8} {
			if p.PredictBounds(f, n) != back.PredictBounds(f, n) {
				t.Errorf("predictions on %d devices differ after round-trip at %+v", n, f)
			}
		}
	}
}

// TestPredictorFormatV1Pinned holds micco-predictor-v1 to the bytes the
// format had while tree nodes were still copied into a mirror struct on
// every save and load: testdata/predictor_v1.json was saved by that code
// from this fixed predictor (two forests, one boosted ensemble, small
// enough to read), so it must never be regenerated. Saving today must
// reproduce it byte for byte, and loading it must predict as the in-memory
// model does.
func TestPredictorFormatV1Pinned(t *testing.T) {
	ds := &mlearn.Dataset{}
	for i := 0; i < 12; i++ {
		x := float64(i)
		ds.Add([]float64{x, float64(i % 3), x * x / 10, 0.25 * float64(i%4)},
			[]float64{0.1 * x, float64(i%3) / 4, 1 / (1 + x)})
	}
	kinds := 0
	m := mlearn.NewMulti(func() mlearn.Regressor {
		if kinds++; kinds == 3 {
			return mlearn.NewBoosting(mlearn.BoostingConfig{Stages: 3, LearningRate: 0.1, Seed: 5})
		}
		return mlearn.NewForest(mlearn.ForestConfig{NumTrees: 2, MinLeaf: 2, Seed: 5})
	})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	p := &Predictor{Kind: ForestModel, model: m, NumGPU: 4, TestR2: 0.75}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/predictor_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Errorf("Save no longer writes the v1 bytes:\n-- got --\n%s-- want --\n%s", saved.Bytes(), want)
	}
	back, err := LoadPredictor(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("v1 file no longer loads: %v", err)
	}
	if back.Kind != p.Kind || back.NumGPU != p.NumGPU || back.TestR2 != p.TestR2 {
		t.Errorf("metadata changed: %+v vs %+v", back, p)
	}
	for _, x := range ds.X {
		got, want := back.model.Predict(x), p.model.Predict(x)
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("loaded model predicts %v at %v, want %v", got, x, want)
			}
		}
	}
}

func TestPredictorSaveErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Predictor{}).Save(&buf); err == nil {
		t.Error("untrained predictor save: want error")
	}
	if _, err := LoadPredictor(strings.NewReader("not json")); err == nil {
		t.Error("garbage load: want error")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"format":"other"}`)); err == nil {
		t.Error("wrong format tag: want error")
	}
	if _, err := LoadPredictor(strings.NewReader(`{"format":"micco-predictor-v1","model":"x"}`)); err == nil {
		t.Error("bad model payload: want error")
	}
}

func TestFeatureImportance(t *testing.T) {
	ds, err := BuildCorpus(context.Background(), CorpusConfig{Samples: 60, Seed: 4, NumGPU: 8, Stages: 3, Batch: 4, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(ds, ForestModel, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := p.FeatureImportance(ds, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != len(workload.FeatureNames()) {
		t.Fatalf("importances = %d, want %d", len(imps), len(workload.FeatureNames()))
	}
	byName := map[string]float64{}
	for _, im := range imps {
		byName[im.Feature] = im.Drop
	}
	// The optimal bound scales with the per-stage slack, so VectorSize
	// must carry substantial importance; TensorSize drives the eviction
	// cliff and should matter too.
	if byName["VectorSize"] <= 0 {
		t.Errorf("VectorSize importance %v, want > 0", byName["VectorSize"])
	}
	if byName["VectorSize"] < byName["DataDistribution"] {
		t.Errorf("VectorSize (%v) should outweigh DataDistribution (%v)",
			byName["VectorSize"], byName["DataDistribution"])
	}
	if _, err := (&Predictor{}).FeatureImportance(ds, 1); err == nil {
		t.Error("untrained predictor importance: want error")
	}
}
