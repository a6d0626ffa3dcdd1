// Command redstar runs the real-world correlation-function case study
// (paper Table VI): it expands the bundled a1 and f0 correlators through
// Wick contraction, stages the contraction graphs, and compares MICCO
// against the Groute baseline on the simulated eight-GPU node. With
// -numeric it additionally evaluates a scaled-down correlator with real
// complex arithmetic and prints C(t).
//
// Usage:
//
//	redstar [-function al_rhopi|f0d2|f0d4|all] [-gpus N] [-baseline NAME] [-numeric]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/cmplx"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"micco"
	"micco/internal/obsfile"
)

func main() {
	function := flag.String("function", "all", "correlator to run: al_rhopi, f0d2, f0d4, or all")
	gpus := flag.Int("gpus", 8, "simulated device count")
	numeric := flag.Bool("numeric", false, "also evaluate a scaled-down correlator numerically")
	seed := flag.Int64("seed", 2022, "random seed for the reuse-bound model and numeric data")
	model := flag.String("model", "", "load a predictor saved by miccotrain -o instead of training")
	traceOut := flag.String("trace", "", "write a Chrome trace of the MICCO run for the first function")
	deck := flag.String("deck", "", "run a correlator from a JSON deck file instead of the bundled ones")
	baseline := flag.String("baseline", "groute", "baseline scheduler to compare MICCO against: "+strings.Join(micco.SchedulerNames(), ", "))
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *function, *gpus, *numeric, *seed, *model, *traceOut, *deck, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "redstar:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, function string, gpus int, numeric bool, seed int64, model, traceOut, deck, baseline string) error {
	if gpus < 1 {
		return fmt.Errorf("-gpus %d: the cluster needs at least one device", gpus)
	}
	var correlators []*micco.Correlator
	if deck != "" {
		f, err := os.Open(deck)
		if err != nil {
			return err
		}
		c, err := micco.LoadDeck(f)
		f.Close()
		if err != nil {
			return err
		}
		correlators = append(correlators, c)
	} else {
		for _, c := range micco.BundledCorrelators() {
			if function == "all" || c.Name == function {
				correlators = append(correlators, c)
			}
		}
		if len(correlators) == 0 {
			return fmt.Errorf("unknown function %q (have al_rhopi, f0d2, f0d4)", function)
		}
	}

	var pred *micco.Predictor
	if model != "" {
		f, err := os.Open(model)
		if err != nil {
			return err
		}
		pred, err = micco.LoadPredictor(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		h := micco.NewHarness(micco.HarnessOptions{Seed: seed})
		var err error
		pred, err = h.Predictor(ctx)
		if err != nil {
			return err
		}
	}

	fmt.Printf("%-10s %7s %7s %8s %9s %10s %10s %8s\n",
		"function", "graphs", "blocks", "contract", "memory", baseline+" GF", "MICCO GF", "speedup")
	for ci, c := range correlators {
		start := time.Now()
		b, err := c.BuildPlan()
		if err != nil {
			return err
		}
		cfg := micco.MI100(gpus)
		cfg.MemoryBytes = 4 << 30
		cluster, err := micco.NewCluster(cfg)
		if err != nil {
			return err
		}
		// A fresh baseline instance per correlator: schedulers carry
		// per-run tie-break state.
		base, err := micco.NewSchedulerByName(baseline, micco.Bounds{}, pred)
		if err != nil {
			return err
		}
		gr, err := micco.Run(ctx, b.Workload, base, cluster, micco.RunOptions{})
		if err != nil {
			return err
		}
		if traceOut != "" && ci == 0 {
			cluster.StartTrace()
		}
		mc, err := micco.Run(ctx, b.Workload, micco.NewMICCOOptimal(pred), cluster, micco.RunOptions{})
		if err != nil {
			return err
		}
		if traceOut != "" && ci == 0 {
			if err := obsfile.WriteTrace(traceOut, os.Stderr, cluster.StopTrace(), nil); err != nil {
				return err
			}
		}
		fmt.Printf("%-10s %7d %7d %8d %8.1fG %10.0f %10.0f %7.2fx   (wall %v)\n",
			c.Name, b.NumGraphs, b.Blocks, len(b.Plan.Ops),
			float64(b.Plan.TotalUniqueBytes())/(1<<30),
			gr.GFLOPS, mc.GFLOPS, micco.Speedup(mc, gr),
			time.Since(start).Round(time.Millisecond))
	}

	if numeric {
		fmt.Println("\nnumeric evaluation (scaled-down al_rhopi, random hadron blocks):")
		c := micco.A1RhoPi()
		c.TensorDim = 24
		c.Batch = 2
		c.Momenta = 2
		c.TimeSlices = 8
		b, err := c.BuildPlan()
		if err != nil {
			return err
		}
		corr, err := b.EvaluateNumeric(seed, 0)
		if err != nil {
			return err
		}
		var times []int
		for t := range corr {
			times = append(times, t)
		}
		sort.Ints(times)
		for _, t := range times {
			fmt.Printf("  C(t=%2d) = %12.4e  |C| = %.4e\n", t, corr[t], cmplx.Abs(corr[t]))
		}
	}
	return nil
}
