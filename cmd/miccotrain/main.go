// Command miccotrain builds the reuse-bound training corpus, trains the
// three regression models of the paper's Table IV, reports their held-out
// R-squared scores, and demonstrates online inference with the winning
// Random Forest.
//
// Usage:
//
//	miccotrain [-samples N] [-seed N] [-gpus N] [-test FRAC]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"micco"
	"micco/internal/obsfile"
)

func main() {
	samples := flag.Int("samples", 300, "training corpus size (the paper uses 300)")
	seed := flag.Int64("seed", 2022, "random seed")
	gpus := flag.Int("gpus", 8, "simulated device count for corpus labeling, recorded in the saved model")
	testFrac := flag.Float64("test", 0.2, "held-out test fraction, strictly between 0 and 1")
	out := flag.String("o", "", "save the trained Random Forest predictor as JSON")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *samples, *seed, *gpus, *testFrac, *out); err != nil {
		fmt.Fprintln(os.Stderr, "miccotrain:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, samples int, seed int64, gpus int, testFrac float64, out string) error {
	// Refuse what cannot yield a measured Table IV before labeling a corpus.
	if samples < 1 {
		return fmt.Errorf("-samples %d: the corpus needs at least one sample", samples)
	}
	if gpus < 1 {
		return fmt.Errorf("-gpus %d: the corpus is labeled on at least one device", gpus)
	}
	if !(testFrac > 0 && testFrac < 1) {
		return fmt.Errorf("-test %v: the held-out fraction must lie strictly between 0 and 1", testFrac)
	}
	fmt.Printf("building corpus: %d samples on %d simulated GPUs...\n", samples, gpus)
	start := time.Now()
	corpus, err := micco.BuildCorpus(ctx, micco.CorpusConfig{
		Samples: samples, Seed: seed, NumGPU: gpus,
	})
	if err != nil {
		return err
	}
	fmt.Printf("corpus ready in %v (%d features, %d targets)\n\n",
		time.Since(start).Round(time.Millisecond), corpus.NumFeatures(), corpus.NumOutputs())

	fmt.Println("Table IV — R2 score of regression models:")
	scores, err := micco.EvaluateModels(corpus, testFrac, seed)
	if err != nil {
		return err
	}
	for _, s := range scores {
		fmt.Printf("  %-20s %.2f\n", s.Kind, s.R2)
	}

	pred, err := micco.TrainPredictor(corpus, micco.ForestModel, testFrac, seed)
	if err != nil {
		return err
	}
	pred.NumGPU = gpus
	fmt.Printf("\ndeployed model: %v (test R2 %.2f)\n", pred.Kind, pred.TestR2)

	fmt.Println("\npermutation feature importance (R2 drop when shuffled):")
	imps, err := pred.FeatureImportance(corpus, seed)
	if err != nil {
		return err
	}
	for _, im := range imps {
		fmt.Printf("  %-18s %+.3f\n", im.Feature, im.Drop)
	}

	if out != "" {
		if err := obsfile.Write(out, "predictor", nil, pred.Save); err != nil {
			return err
		}
		fmt.Printf("\npredictor saved to %s\n", out)
	}
	fmt.Println("\nsample online inferences (per-stage reuse bounds):")
	probes := []micco.Features{
		{VectorSize: 64, TensorDim: 384, DistBias: 0, RepeatRate: 0.50},
		{VectorSize: 64, TensorDim: 384, DistBias: 1, RepeatRate: 0.50},
		{VectorSize: 16, TensorDim: 128, DistBias: 0, RepeatRate: 0.25},
		{VectorSize: 32, TensorDim: 768, DistBias: 1, RepeatRate: 0.75},
	}
	for _, f := range probes {
		fmt.Printf("  v=%3.0f t=%3.0f biased=%v rate=%.2f -> bounds %v\n",
			f.VectorSize, f.TensorDim, f.DistBias == 1, f.RepeatRate, pred.PredictBounds(f, gpus))
	}
	return nil
}
