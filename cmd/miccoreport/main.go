// Command miccoreport turns a run's observability artifacts into a
// post-run analysis: the critical path through the simulated timeline
// (with per-device and per-link blame shares), the per-stage utilization
// waterfall, and a predicted-vs-actual transfer drift summary. It can
// also diff two metrics snapshots to spot regressions between runs.
//
// Usage:
//
//	miccoreport -workload w.json -scheduler micco -gpus 8
//	miccoreport -deck deck.json -scheduler locality
//	miccoreport -decisions d.ndjson
//	miccoreport -diff-old before.json -diff-new after.json
//	miccoreport -workload w.json -json -o report.json
//
// The first two forms execute the workload (or compiled correlator deck)
// on the simulated cluster and report on the fresh run; -decisions
// analyzes drift from a previously saved NDJSON decision log; -diff-old /
// -diff-new compares two -metrics snapshots. Output is deterministic for
// a given input, so reports can be golden-tested and diffed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"micco"
	"micco/internal/manifest"
	"micco/internal/obsfile"
)

// reportConfig gathers the command's flags: the manifest of run mode, the
// inputs of the other modes, and the output.
type reportConfig struct {
	manifest.Manifest
	decisions string
	diffOld   string
	diffNew   string
	jsonOut   bool
	out       string
}

func main() {
	var cfg reportConfig
	cfg.Bind(flag.CommandLine)
	flag.StringVar(&cfg.Deck, "deck", "", "correlator deck JSON to compile, run and report on (alternative to -workload)")
	flag.StringVar(&cfg.decisions, "decisions", "", "decision NDJSON file (from miccorun -decisions): report drift only, no run")
	flag.StringVar(&cfg.diffOld, "diff-old", "", "baseline metrics snapshot JSON for diff mode")
	flag.StringVar(&cfg.diffNew, "diff-new", "", "candidate metrics snapshot JSON for diff mode")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON instead of text")
	flag.StringVar(&cfg.out, "o", "", "write the report to this file (default stdout)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "miccoreport:", err)
		os.Exit(1)
	}
}

// run dispatches on the mode flags and renders to out (or cfg.out).
func run(ctx context.Context, cfg reportConfig, out io.Writer) error {
	render, err := pickMode(ctx, cfg)
	if err != nil {
		return err
	}
	if cfg.out != "" {
		return obsfile.Write(cfg.out, "report", os.Stderr, render)
	}
	bw := bufio.NewWriter(out)
	if err := render(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// pickMode validates the flag combination and returns the render function
// for the selected mode.
func pickMode(ctx context.Context, cfg reportConfig) (func(io.Writer) error, error) {
	modes := 0
	for _, on := range []bool{cfg.Workload != "" || cfg.Deck != "", cfg.decisions != "", cfg.diffOld != "" || cfg.diffNew != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return nil, fmt.Errorf("pick one mode: -workload/-deck (run), -decisions (drift), or -diff-old/-diff-new (diff)")
	}
	switch {
	case cfg.diffOld != "" || cfg.diffNew != "":
		if cfg.diffOld == "" || cfg.diffNew == "" {
			return nil, fmt.Errorf("diff mode needs both -diff-old and -diff-new")
		}
		diff, err := diffSnapshots(cfg.diffOld, cfg.diffNew)
		if err != nil {
			return nil, err
		}
		if cfg.jsonOut {
			return diff.WriteJSON, nil
		}
		return diff.WriteText, nil
	case cfg.decisions != "":
		rep, err := driftReport(cfg.decisions)
		if err != nil {
			return nil, err
		}
		return renderer(rep, cfg.jsonOut), nil
	default:
		rep, err := runReport(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return renderer(rep, cfg.jsonOut), nil
	}
}

func renderer(rep *micco.RunReport, jsonOut bool) func(io.Writer) error {
	if jsonOut {
		return rep.WriteJSON
	}
	return rep.WriteText
}

// diffSnapshots loads two metrics snapshot files and compares them.
func diffSnapshots(oldPath, newPath string) (*micco.MetricsDiff, error) {
	load := func(path string) (*micco.MetricsSnapshot, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return micco.LoadMetricsSnapshot(f)
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		return nil, err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return nil, err
	}
	return micco.DiffMetricsSnapshots(oldSnap, newSnap), nil
}

// driftReport builds a drift-only report from a saved decision log.
func driftReport(path string) (*micco.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := micco.ReadDecisions(f)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no decision records", path)
	}
	return micco.BuildReport(micco.ReportInput{Decisions: recs}), nil
}

// runReport executes the workload under full observability and assembles
// the report from the resulting trace, decisions and metrics.
func runReport(ctx context.Context, cfg reportConfig) (*micco.RunReport, error) {
	w, s, cluster, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	reg := micco.NewMetricsRegistry()
	cluster.StartTrace()
	res, err := micco.Run(ctx, w, s, cluster, micco.RunOptions{Obs: reg})
	if err != nil {
		return nil, err
	}
	return micco.BuildReport(micco.ReportInput{
		Scheduler: cfg.Scheduler,
		Workload:  w.Name,
		Devices:   cfg.GPUs,
		Makespan:  res.Makespan,
		Events:    cluster.StopTrace(),
		Decisions: reg.Decisions(),
		Snapshot:  res.Metrics,
	}), nil
}
