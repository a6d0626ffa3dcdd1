package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"micco"
)

var (
	tinyModelOnce sync.Once
	tinyModelPath string
	tinyModelErr  error
)

// tinyModel trains and saves a small predictor once for all CLI tests, so
// each test skips the full-corpus training that run() would do by default.
func tinyModel(t *testing.T) string {
	t.Helper()
	tinyModelOnce.Do(func() {
		pred, err := buildTinyCorpus()
		if err != nil {
			tinyModelErr = err
			return
		}
		tinyModelPath = filepath.Join(os.TempDir(), "micco-test-model.json")
		f, err := os.Create(tinyModelPath)
		if err != nil {
			tinyModelErr = err
			return
		}
		defer f.Close()
		tinyModelErr = pred.Save(f)
	})
	if tinyModelErr != nil {
		t.Fatal(tinyModelErr)
	}
	return tinyModelPath
}

// silence redirects stdout during f.
func silence(t *testing.T, f func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	return f()
}

func TestRunUnknownFunction(t *testing.T) {
	if err := run(context.Background(), "nope", 4, false, 1, "", "", "", "groute"); err == nil {
		t.Error("unknown function: want error")
	}
}

// TestRunRefusesNoDevices: a node of no devices is refused before any
// predictor is trained or any header printed.
func TestRunRefusesNoDevices(t *testing.T) {
	for _, gpus := range []int{0, -3} {
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = out
		err = run(context.Background(), "al_rhopi", gpus, false, 1, "", "", "", "groute")
		os.Stdout = old
		out.Close()
		if err == nil || !strings.HasPrefix(err.Error(), "-gpus ") {
			t.Errorf("-gpus %d: err %v, want an error naming -gpus", gpus, err)
		}
		if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
			t.Errorf("-gpus %d: printed %q before refusing", gpus, printed)
		}
	}
}

// TestRunRefusesBadArguments: an unknown -baseline, and a -function given
// with -deck, are refused before any predictor is trained, any deck read or
// any header printed.
func TestRunRefusesBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name, function, deck, baseline, want string
	}{
		{"unknown baseline", "al_rhopi", "", "nosuch", "-baseline: "},
		{"function with deck", "al_rhopi", "deck.json", "groute", "-function "},
		{"default function named with deck", "all", "deck.json", "groute", "-function "},
	} {
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = out
		err = run(context.Background(), tc.function, 2, false, 1, "", "", tc.deck, tc.baseline)
		os.Stdout = old
		out.Close()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want an error starting %q", tc.name, err, tc.want)
		}
		if tc.baseline == "nosuch" && !errors.Is(err, micco.ErrUnknownScheduler) {
			t.Errorf("%s: err %v does not wrap ErrUnknownScheduler", tc.name, err)
		}
		if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
			t.Errorf("%s: printed %q before refusing", tc.name, printed)
		}
	}
}

func TestRunWithTraceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	// The trace goes through obsfile like every other CLI's, which reports
	// what it wrote on stderr.
	logPath := filepath.Join(t.TempDir(), "stderr")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = logFile
	err = silence(t, func() error {
		return run(context.Background(), "al_rhopi", 4, false, 7, tinyModel(t), trace, "", "groute")
	})
	os.Stderr = oldStderr
	logFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	logged, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "events) written to " + trace; !strings.Contains(string(logged), want) {
		t.Errorf("stderr %q does not report %q", logged, want)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("empty trace")
	}
}

func TestRunWithSavedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a corpus")
	}
	err := silence(t, func() error {
		return run(context.Background(), "al_rhopi", 4, false, 7, tinyModel(t), "", "", "groute")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// buildTinyCorpus trains a small predictor through the public API.
func buildTinyCorpus() (*micco.Predictor, error) {
	corpus, err := micco.BuildCorpus(context.Background(), micco.CorpusConfig{
		Samples: 16, Seed: 3, NumGPU: 4, Stages: 2, Batch: 2, Replicas: 1,
	})
	if err != nil {
		return nil, err
	}
	return micco.TrainPredictor(corpus, micco.ForestModel, 0.2, 3)
}

func TestRunWithDeckFile(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	deck := filepath.Join(t.TempDir(), "deck.json")
	content := `{
	  "name": "custom_rho",
	  "constructions": [
	    {"name": "rho", "ops": [{"name": "rho", "quarks": [
	      {"flavor": "u"}, {"flavor": "d", "bar": true}]}]}
	  ],
	  "momenta": 2, "timeSlices": 4, "tensorDim": 32, "batch": 2
	}`
	if err := os.WriteFile(deck, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	err := silence(t, func() error {
		return run(context.Background(), "", 2, false, 7, tinyModel(t), "", deck, "groute")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(deck); err != nil {
		t.Fatal(err)
	}
	// Bad deck path errors cleanly.
	if err := run(context.Background(), "", 2, false, 7, "", "", filepath.Join(t.TempDir(), "missing.json"), "groute"); err == nil {
		t.Error("missing deck: want error")
	}
}
