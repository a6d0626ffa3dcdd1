// Command wgen generates synthetic many-body-correlation workloads and
// writes them as JSON, for inspection or for driving external tools.
//
// Usage:
//
//	wgen [-stages N] [-vector N] [-tensor N] [-batch N] [-rate F]
//	     [-dist uniform|gaussian] [-seed N] [-summary] [-o FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"micco"
	"micco/internal/obsfile"
)

func main() {
	stages := flag.Int("stages", 10, "number of sequential stages")
	vector := flag.Int("vector", 64, "tensors per vector (pairs per stage)")
	dim := flag.Int("tensor", 384, "tensor mode length")
	batch := flag.Int("batch", 8, "batched instances per hadron node")
	rate := flag.Float64("rate", 0.5, "target repeated rate in [0,1]")
	dist := flag.String("dist", "uniform", "repeated-data distribution: uniform or gaussian")
	seed := flag.Int64("seed", 1, "generation seed")
	summary := flag.Bool("summary", false, "emit only summary statistics, not the pair stream")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if err := run(*stages, *vector, *dim, *batch, *rate, *dist, *seed, *summary, *out); err != nil {
		fmt.Fprintln(os.Stderr, "wgen:", err)
		os.Exit(1)
	}
}

func run(stages, vector, dim, batch int, rate float64, dist string, seed int64, summary bool, out string) error {
	var d micco.Distribution
	switch dist {
	case "uniform":
		d = micco.Uniform
	case "gaussian":
		d = micco.Gaussian
	default:
		return fmt.Errorf("unknown distribution %q", dist)
	}
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: seed, Stages: stages, VectorSize: vector, TensorDim: dim,
		Batch: batch, Rank: micco.RankMeson, RepeatRate: rate, Dist: d,
	})
	if err != nil {
		return err
	}
	var doc any = w
	if summary {
		type stageSummary struct {
			Index      int
			Pairs      int
			RepeatRate float64
		}
		var ss []stageSummary
		for _, st := range w.Stages {
			ss = append(ss, stageSummary{st.Index, len(st.Pairs), st.RepeatRate})
		}
		doc = map[string]any{
			"name":               w.Name,
			"pairs":              w.NumPairs(),
			"uniqueInputs":       len(w.Inputs),
			"outputs":            len(w.Outputs),
			"totalFLOPs":         w.TotalFLOPs(),
			"totalUniqueBytes":   w.TotalUniqueBytes(),
			"measuredRepeatRate": w.MeasuredRepeatRate(),
			"stages":             ss,
		}
	}
	encode := func(sink io.Writer) error {
		enc := json.NewEncoder(sink)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	if out == "" {
		return encode(os.Stdout)
	}
	return obsfile.Write(out, "workload", nil, encode)
}
