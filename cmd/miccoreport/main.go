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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"micco"
	"micco/internal/obsfile"
)

// reportConfig gathers the command's flags.
type reportConfig struct {
	workload  string
	deck      string
	scheduler string
	bounds    micco.Bounds
	gpus      int
	memGiB    float64
	decisions string
	diffOld   string
	diffNew   string
	jsonOut   bool
	out       string
}

func main() {
	var cfg reportConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload JSON file (from wgen) to run and report on")
	flag.StringVar(&cfg.deck, "deck", "", "correlator deck JSON to compile, run and report on (alternative to -workload)")
	flag.StringVar(&cfg.scheduler, "scheduler", "micco", "scheduler for run mode: "+strings.Join(micco.SchedulerNames(), ", "))
	flag.TextVar(&cfg.bounds, "bounds", micco.Bounds{0, 2, 0}, "reuse bounds for the micco scheduler, e.g. 0,2,0")
	flag.IntVar(&cfg.gpus, "gpus", 8, "simulated device count for run mode")
	flag.Float64Var(&cfg.memGiB, "mem", 0, "per-device pool in GiB (0 = fit the working set with 10% headroom)")
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
	for _, on := range []bool{cfg.workload != "" || cfg.deck != "", cfg.decisions != "", cfg.diffOld != "" || cfg.diffNew != ""} {
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
		if cfg.workload != "" && cfg.deck != "" {
			return nil, fmt.Errorf("pick one of -workload and -deck")
		}
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

// loadWorkload resolves -workload or -deck into a workload and its label.
func loadWorkload(cfg reportConfig) (*micco.Workload, error) {
	if cfg.deck != "" {
		f, err := os.Open(cfg.deck)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		corr, err := micco.LoadDeck(f)
		if err != nil {
			return nil, err
		}
		build, err := corr.BuildPlan()
		if err != nil {
			return nil, err
		}
		return build.Workload, nil
	}
	raw, err := os.ReadFile(cfg.workload)
	if err != nil {
		return nil, err
	}
	var w micco.Workload // the decode validates and numbers the stream
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("parse workload %s: %w", cfg.workload, err)
	}
	return &w, nil
}

// runReport executes the workload under full observability and assembles
// the report from the resulting trace, decisions and metrics.
func runReport(ctx context.Context, cfg reportConfig) (*micco.RunReport, error) {
	w, err := loadWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if micco.SchedulerNeedsPredictor(cfg.scheduler) {
		return nil, fmt.Errorf("scheduler %q needs a trained predictor; use redstar or miccobench", cfg.scheduler)
	}
	s, err := micco.NewSchedulerByName(cfg.scheduler, cfg.bounds, nil)
	if err != nil {
		return nil, err
	}
	gcfg := micco.MI100(cfg.gpus)
	if cfg.memGiB > 0 {
		gcfg.MemoryBytes = int64(cfg.memGiB * float64(1<<30))
	} else {
		gcfg.MemoryBytes = int64(1.1 * float64(w.TotalUniqueBytes()))
	}
	cluster, err := micco.NewCluster(gcfg)
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
		Scheduler: cfg.scheduler,
		Workload:  w.Name,
		Devices:   cfg.gpus,
		Makespan:  res.Makespan,
		Events:    cluster.StopTrace(),
		Decisions: reg.Decisions(),
		Snapshot:  res.Metrics,
	}), nil
}
