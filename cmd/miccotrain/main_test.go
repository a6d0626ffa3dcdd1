package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micco"
)

func TestTrainSaveAndReload(t *testing.T) {
	out := filepath.Join(t.TempDir(), "model.json")
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = run(context.Background(), 24, 7, 4, 0.2, out)
	os.Stdout = old
	devnull.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pred, err := micco.LoadPredictor(f)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Kind != micco.ForestModel || pred.NumGPU != 4 {
		t.Errorf("reloaded predictor metadata wrong: %+v", pred)
	}
	b := pred.PredictBounds(micco.Features{VectorSize: 32, TensorDim: 256, RepeatRate: 0.5}, pred.NumGPU)
	for _, v := range b {
		if v < 0 {
			t.Errorf("negative bound %v", b)
		}
	}
}

// TestRunRefusesUnmeasurableFlags: a held-out fraction outside (0, 1), a
// corpus of no samples or a node of no devices is refused before the corpus
// is labeled, not reported as a Table IV of zeros, trained on the default
// size or labeled on another node than the saved model records.
func TestRunRefusesUnmeasurableFlags(t *testing.T) {
	for _, c := range []struct {
		flag     string
		samples  int
		gpus     int
		testFrac float64
	}{
		{"-test", 24, 4, 0},
		{"-test", 24, 4, 1},
		{"-test", 24, 4, 1.5},
		{"-test", 24, 4, -0.2},
		{"-test", 24, 4, math.NaN()},
		{"-samples", 0, 4, 0.2},
		{"-samples", -5, 4, 0.2},
		{"-gpus", 24, 0, 0.2},
		{"-gpus", 24, -2, 0.2},
	} {
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = out
		err = run(context.Background(), c.samples, 7, c.gpus, c.testFrac, "")
		os.Stdout = old
		out.Close()
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("samples %d, gpus %d, test %v: err %v, want an error naming %s", c.samples, c.gpus, c.testFrac, err, c.flag)
		}
		if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
			t.Errorf("samples %d, gpus %d, test %v: printed %q before refusing", c.samples, c.gpus, c.testFrac, printed)
		}
	}
}
