// Command miccorun executes a workload file (as produced by wgen) on the
// simulated multi-GPU cluster under a chosen scheduler, completing the
// generate -> schedule -> measure toolchain.
//
// Usage:
//
//	wgen -stages 10 -vector 64 -o w.json
//	miccorun -workload w.json -scheduler micco -gpus 8
//	miccorun -workload w.json -scheduler groute -compare
//	miccorun -workload w.json -metrics m.json -decisions d.ndjson
//	miccorun -workload w.json -faults plan.json
//	miccorun -workload w.json -numeric
//	miccorun -workload w.json -serve :9090
//	miccorun -workload w.json -checkpoint-dir ckpt -supervise -stall-budget 30s
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
	"micco/internal/manifest"
	"micco/internal/obsfile"
)

// runConfig gathers the command's flags: the run's manifest, and what to
// record and how to deploy it.
type runConfig struct {
	manifest.Manifest
	compare      bool
	traceOut     string
	metricsOut   string
	decisionsOut string
	faultsIn     string
	numeric      bool
	numericSeed  int64
	numericPar   int
	serveAddr    string
	ckptDir      string
	ckptEvery    int
	supervise    bool
	stallBudget  time.Duration
}

func main() {
	var cfg runConfig
	cfg.Bind(flag.CommandLine)
	flag.BoolVar(&cfg.compare, "compare", false, "also run every other scheduler and report speedups")
	flag.StringVar(&cfg.traceOut, "trace", "", "write a Chrome trace of the primary run")
	flag.StringVar(&cfg.metricsOut, "metrics", "", "write a JSON metrics snapshot of the primary run")
	flag.StringVar(&cfg.decisionsOut, "decisions", "", "write per-placement decision records as NDJSON")
	flag.StringVar(&cfg.faultsIn, "faults", "", "fault-injection plan JSON: replay device loss, link degradation and transient failures into the run")
	flag.BoolVar(&cfg.numeric, "numeric", false, "execute every contraction with real complex128 arithmetic alongside the simulation and report the numeric fingerprint (expensive; small workloads)")
	flag.Int64Var(&cfg.numericSeed, "numeric-seed", 1, "seed for the numeric input data")
	flag.IntVar(&cfg.numericPar, "numeric-parallel", 0, "with -numeric, width of the worker pool that runs each stage's dependency-level batches, the engine goroutine included: N > 1 = N workers, 0 and 1 = GOMAXPROCS; the exact-tier fingerprint is identical at every width")
	flag.StringVar(&cfg.serveAddr, "serve", "", "serve live observability HTTP on this address (e.g. :9090): /metrics, /metrics.json, /decisions, /trace, /flight, /healthz, /debug/pprof; keeps serving after the run until interrupted")
	flag.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "persist durable stage-boundary checkpoints in this directory (atomic write + fsync); a run interrupted or killed resumes from the file on the next -supervise invocation")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 0, "with -checkpoint-dir, write the durable file only at every Nth stage boundary plus the final one (0 or 1 = every boundary)")
	flag.BoolVar(&cfg.supervise, "supervise", false, "run under the self-healing supervisor: retry cluster loss, contained worker panics and watchdog-detected stalls from the last checkpoint with capped exponential backoff; with -checkpoint-dir, resume a dead process's run from disk first")
	flag.DurationVar(&cfg.stallBudget, "stall-budget", 0, "with -supervise, arm the progress watchdog: cancel and resume the run if no pair completes within this wall budget (e.g. 30s; 0 = watchdog off)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "miccorun:", err)
		os.Exit(1)
	}
}

// checkFlags refuses the flag values and combinations no run honours, before
// anything is resolved or printed.
func (rc runConfig) checkFlags() error {
	switch {
	case rc.stallBudget < 0:
		return fmt.Errorf("-stall-budget %v: must be non-negative (0 = watchdog off)", rc.stallBudget)
	case rc.ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: must be non-negative", rc.ckptEvery)
	case rc.numericPar < 0:
		return fmt.Errorf("-numeric-parallel %d: must be non-negative", rc.numericPar)
	case rc.ckptEvery > 1 && rc.ckptDir == "":
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	case rc.stallBudget > 0 && !rc.supervise:
		return fmt.Errorf("-stall-budget requires -supervise")
	}
	return nil
}

func run(ctx context.Context, rc runConfig) error {
	if err := rc.checkFlags(); err != nil {
		return err
	}
	w, primary, cluster, err := rc.Resolve()
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %d contractions, %d stages, %.1f GB working set\n",
		w.Name, w.NumPairs(), len(w.Stages), float64(w.TotalUniqueBytes())/1e9)
	fmt.Printf("cluster: %d GPUs, %.1f GiB pools\n\n", rc.GPUs, float64(cluster.Config().MemoryBytes)/(1<<30))

	var plan *micco.FaultPlan
	if rc.faultsIn != "" {
		f, err := os.Open(rc.faultsIn)
		if err != nil {
			return err
		}
		plan, err = micco.LoadFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := plan.Validate(rc.GPUs); err != nil {
			return err
		}
		fmt.Printf("fault plan %s: %d events\n\n", rc.faultsIn, len(plan.Events))
	}

	var reg *micco.MetricsRegistry
	opts := micco.RunOptions{FaultPlan: plan}
	if rc.numeric {
		opts.Numeric = true
		opts.NumericSeed = rc.numericSeed
		opts.Parallelism = rc.numericPar
		fmt.Printf("numeric kernels: %s\n\n", micco.KernelFeatures())
	}
	if rc.metricsOut != "" || rc.decisionsOut != "" || rc.traceOut != "" || rc.serveAddr != "" {
		// The registry also feeds decision instant events into the trace.
		reg = micco.NewMetricsRegistry()
		opts.Obs = reg
	}
	if rc.serveAddr != "" {
		// The flight recorder backs the server's /trace and /flight views
		// with the most recent activity.
		reg.SetFlightRecorder(micco.NewFlightRecorder())
		srv, err := micco.ServeObs(rc.serveAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability server listening on %s\n", srv.URL())
	}
	if rc.ckptDir != "" {
		opts.CheckpointDir = rc.ckptDir
		opts.CheckpointEvery = rc.ckptEvery
	}
	if rc.traceOut != "" {
		cluster.StartTrace()
	}
	var res *micco.Result
	if rc.supervise {
		// The supervisor rebuilds the scheduler per attempt (its state is
		// not trusted after a failure); the one cluster is reused — the
		// engine resets or restores it from the resume checkpoint anyway.
		var st micco.SuperviseStats
		res, st, err = micco.Supervise(ctx, micco.SuperviseConfig{
			Workload:     w,
			NewScheduler: func(context.Context) (micco.Scheduler, error) { return rc.NewScheduler() },
			NewCluster:   func() (*micco.Cluster, error) { return cluster, nil },
			Run:          opts,
			StallBudget:  rc.stallBudget,
		})
		if st.Attempts > 1 || st.ResumedFromDisk {
			fmt.Printf("supervisor: %d attempt(s), %d retries, %d watchdog trips, %d devices revived, resumed from disk: %v\n\n",
				st.Attempts, st.Retries, st.WatchdogTrips, st.DevicesRevived, st.ResumedFromDisk)
		}
	} else {
		res, err = micco.Run(ctx, w, primary, cluster, opts)
	}
	if err != nil {
		return err
	}
	if rc.numeric {
		fmt.Printf("numeric fingerprint (seed %d): %x\n\n", rc.numericSeed, res.NumericFingerprint)
	}
	if plan != nil {
		rec := res.Recovery
		fmt.Printf("faults: %d injected, %d devices lost, %d restored, %d pairs rescheduled, %d transient retries (%.4fs backoff)\n\n",
			rec.FaultsInjected, rec.DevicesLost, rec.DevicesRestored,
			rec.PairsRescheduled, rec.TransientRetries, rec.BackoffSimSeconds)
	}
	if rc.traceOut != "" {
		if err := obsfile.WriteTrace(rc.traceOut, os.Stderr, cluster.StopTrace(), reg.Decisions()); err != nil {
			return err
		}
	}
	if rc.metricsOut != "" {
		if err := obsfile.WriteMetrics(rc.metricsOut, os.Stderr, res.Metrics); err != nil {
			return err
		}
	}
	if rc.decisionsOut != "" {
		if err := obsfile.WriteDecisions(rc.decisionsOut, os.Stderr, reg.Decisions()); err != nil {
			return err
		}
	}
	report := func(r *micco.Result) {
		fmt.Printf("%-14s %8.0f GFLOPS  makespan %8.4fs  hits %5d  evictions %4d  speedup %.2fx\n",
			r.Scheduler, r.GFLOPS, r.Makespan, r.Total.ReuseHits, r.Total.Evictions,
			micco.Speedup(r, res))
	}
	report(res)
	if rc.compare {
		for _, name := range micco.SchedulerNames() {
			if name == rc.Scheduler || micco.SchedulerNeedsPredictor(name) {
				continue
			}
			s, err := micco.NewSchedulerByName(name, rc.Bounds, nil)
			if err != nil {
				return err
			}
			// Replay the same fault plan so speedups compare like with like.
			other, err := micco.Run(ctx, w, s, cluster, micco.RunOptions{FaultPlan: plan})
			if err != nil {
				return err
			}
			report(other)
		}
	}
	if rc.serveAddr != "" {
		// Results stay browsable after the run; Ctrl-C (or SIGTERM) exits.
		fmt.Fprintln(os.Stderr, "run complete; observability server still up (interrupt to exit)")
		<-ctx.Done()
	}
	return nil
}
