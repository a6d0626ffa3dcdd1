// Command miccobench regenerates the MICCO paper's evaluation tables and
// figures on the simulated multi-GPU cluster.
//
// Usage:
//
//	miccobench [-run fig7,tab6] [-quick] [-seed N] [-parallel N] [-csv DIR]
//
// Without -run, every experiment runs in paper order. With -csv, each
// table is additionally written as CSV into the given directory.
// -cpuprofile and -memprofile write pprof profiles of the whole invocation
// (go tool pprof <binary> <profile>). -metrics writes a JSON metrics
// snapshot aggregated across every experiment run; -trace writes a Chrome
// trace of the most recent simulator activity (flight-recorder bounded).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"micco"
	"micco/internal/obsfile"
)

func main() {
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all paper experiments); available: "+strings.Join(micco.ExperimentIDs(), ",")+",ext")
	quick := flag.Bool("quick", false, "shrink sweeps and the training corpus for a fast run")
	seed := flag.Int64("seed", 2022, "random seed for workloads, corpus and models")
	parallel := flag.Int("parallel", 0, "worker pool for independent sweep points (0 = GOMAXPROCS, 1 = serial); tables are identical at any setting")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot aggregated across all experiment runs")
	traceOut := flag.String("trace", "", "write a Chrome trace of the most recent simulator activity (bounded by the flight-recorder ring)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "miccobench:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if err := run(ctx, *runList, *quick, *seed, *parallel, *csvDir, *metricsOut, *traceOut); err != nil {
		fail(err)
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fail(err)
		}
	}
}

// writeMemProfile snapshots the heap after a final GC so the profile shows
// live allocations, not garbage awaiting collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(ctx context.Context, runList string, quick bool, seed int64, parallel int, csvDir, metricsOut, traceOut string) error {
	ids := micco.ExperimentIDs()
	if runList != "" {
		ids = strings.Split(runList, ",")
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Printf("kernels: %s\n\n", micco.KernelFeatures())
	// With -metrics or -trace, every sweep point reports into one shared
	// registry; the trace is bounded by the flight-recorder ring, so it
	// holds the most recent activity rather than the whole sweep.
	var reg *micco.MetricsRegistry
	if metricsOut != "" || traceOut != "" {
		reg = micco.NewMetricsRegistry()
		if traceOut != "" {
			reg.SetFlightRecorder(micco.NewFlightRecorder())
		}
	}
	h := micco.NewHarness(micco.HarnessOptions{Quick: quick, Seed: seed, Parallelism: parallel, Obs: reg})
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		tab, err := h.RunExperiment(ctx, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		if csvDir != "" {
			if err := obsfile.Write(filepath.Join(csvDir, tab.ID+".csv"), "table", nil, tab.CSV); err != nil {
				return err
			}
		}
	}
	if metricsOut != "" {
		if err := obsfile.WriteMetrics(metricsOut, os.Stderr, reg.Snapshot()); err != nil {
			return err
		}
	}
	if traceOut != "" {
		snap := reg.FlightRecorder().Snapshot()
		if err := obsfile.WriteTrace(traceOut, os.Stderr, snap.Events, snap.Decisions); err != nil {
			return err
		}
	}
	return nil
}
