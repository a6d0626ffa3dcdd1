// Package supervise wraps sched.Run in a self-healing retry loop: a run
// that dies with a checkpoint-bearing failure is resumed from its last
// stage-boundary checkpoint under capped exponential backoff, and a
// progress watchdog detects a stalled pipeline (no pair placed within a
// wall budget), dumps the flight recorder for post-mortem, cancels the
// attempt and resumes it the same way. The supervisor owns the policy the
// engine deliberately does not: which failures are worth retrying, how
// many times, how long to wait, and when a silent run should be declared
// dead.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// The retry policy: at most DefMaxRetries retries of a failed attempt, the
// first after DefBackoff, each later one after twice the delay before it, up
// to DefMaxBackoff.
const (
	DefMaxRetries = 3
	DefBackoff    = 50 * time.Millisecond
	DefMaxBackoff = 2 * time.Second
)

// ErrStalled marks an attempt cancelled by the progress watchdog: no pair
// completed within Config.StallBudget. The error returned by Run wraps it
// when the final attempt died that way.
var ErrStalled = errors.New("supervise: run stalled")

// Config parameterizes one supervised run.
type Config struct {
	// Workload is the workload every attempt executes. Required.
	Workload *workload.Workload
	// NewScheduler builds a fresh scheduler for each attempt (scheduler
	// state is not trusted to survive a failed run). The context is the
	// attempt's context: it is cancelled when the watchdog trips or the
	// parent context ends, so even a scheduler wedged outside the engine's
	// per-pair cancellation checks can observe the abort. Required.
	NewScheduler func(ctx context.Context) (sched.Scheduler, error)
	// NewCluster builds a fresh cluster for each attempt; sched.Run then
	// resets it and replays the resume checkpoint onto it. Required.
	NewCluster func() (*gpusim.Cluster, error)
	// Run is the engine configuration. Options.Checkpoint is forced on
	// (supervision without checkpoints cannot resume anything), and a
	// Progress counter is attached if the caller did not provide one.
	// Counters are resolved from Run.Obs (nil-safe). With
	// Run.CheckpointDir set, the durable checkpoint a dead process left
	// there for the workload seeds the first attempt; an unreadable or
	// corrupt file is ignored (the run starts from scratch — self-healing,
	// not fail-stop).
	Run sched.Options
	// StallBudget arms the progress watchdog: if no pair completes for
	// this long, the attempt is declared stalled, the flight recorder is
	// dumped, and the attempt is cancelled and retried from its last
	// checkpoint. The watchdog samples progress every StallBudget/8, and
	// at most once a millisecond. Zero disables the watchdog; Run refuses a
	// negative budget with an error wrapping gpusim.ErrInvalidConfig.
	StallBudget time.Duration
	// Sleep replaces the backoff sleep, for tests that must not wait in
	// real time. Nil sleeps on a timer, returning early if ctx ends.
	Sleep func(d time.Duration)
}

// Stats summarizes what the supervisor did across all attempts.
type Stats struct {
	// Attempts counts sched.Run invocations (>= 1).
	Attempts int
	// Retries counts resumed attempts (Attempts - 1 unless the first
	// attempt never started).
	Retries int
	// WatchdogTrips counts attempts cancelled for lack of progress.
	WatchdogTrips int
	// DevicesRevived counts failed devices repaired in resume checkpoints
	// after ErrClusterLost.
	DevicesRevived int
	// ResumedFromDisk reports whether the first attempt was seeded from a
	// durable checkpoint found on disk.
	ResumedFromDisk bool
}

// backoff returns the capped exponential delay before retry number
// retry (1-based).
func backoff(retry int) time.Duration {
	d := DefBackoff
	for i := 1; i < retry && d < DefMaxBackoff; i++ {
		d *= 2
	}
	return min(d, DefMaxBackoff)
}

func (c Config) sleep(ctx context.Context, d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// retryable reports whether err is a failure the supervisor can usefully
// retry from a checkpoint: losing the whole cluster (the checkpoint revives
// the devices down at its boundary before resuming), a contained worker panic in the
// numeric pipeline, or a watchdog-tripped cancellation while the parent
// context is still alive. Everything else — invalid configuration, a
// scheduler bug, the caller's own cancellation — is surfaced immediately.
func retryable(err error, tripped bool, parent context.Context) bool {
	switch {
	case errors.Is(err, sched.ErrClusterLost):
		return true
	case errors.Is(err, tensor.ErrWorkerPanic):
		return true
	case tripped && parent.Err() == nil && errors.Is(err, context.Canceled):
		return true
	}
	return false
}

// Run executes cfg.Workload under supervision and returns the successful
// attempt's result. On giving up it returns the final attempt's partial
// result (when one exists) and an error wrapping the underlying failure;
// a watchdog-tripped final attempt additionally wraps ErrStalled. Stats
// is always valid.
func Run(ctx context.Context, cfg Config) (*sched.Result, Stats, error) {
	var st Stats
	if cfg.Workload == nil || cfg.NewScheduler == nil || cfg.NewCluster == nil {
		return nil, st, fmt.Errorf("supervise: %w: workload, scheduler factory and cluster factory must be non-nil", sched.ErrNilArgument)
	}
	if cfg.StallBudget < 0 {
		return nil, st, fmt.Errorf("supervise: %w: StallBudget %v must be non-negative", gpusim.ErrInvalidConfig, cfg.StallBudget)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	opts := cfg.Run
	opts.Checkpoint = true
	if opts.Progress == nil {
		opts.Progress = &sched.Progress{}
	}
	reg := opts.Obs
	retriesC := reg.Counter("micco_supervisor_retries_total")
	tripsC := reg.Counter("micco_watchdog_trips_total")

	var resume *sched.Checkpoint
	if opts.CheckpointDir != "" {
		if cp, err := sched.LoadCheckpointFile(sched.CheckpointPath(opts.CheckpointDir, cfg.Workload.Name)); err == nil {
			resume = cp
			st.ResumedFromDisk = true
		}
	}

	for retry := 0; ; retry++ {
		st.Attempts++
		runCtx, cancel := context.WithCancel(ctx)
		var tripped atomic.Bool
		var wd sync.WaitGroup
		if cfg.StallBudget > 0 {
			wd.Add(1)
			go func() {
				defer wd.Done()
				watch(runCtx, cancel, cfg, opts.Progress, &tripped, func() {
					st.WatchdogTrips++
					tripsC.Inc()
					reg.FlightRecorder().Dump(fmt.Sprintf(
						"watchdog: no pair completed within %v (attempt %d)", cfg.StallBudget, st.Attempts))
				})
			}()
		}

		res, err := runOnce(runCtx, cfg, opts, resume)
		cancel()
		wd.Wait()
		if err == nil {
			return res, st, nil
		}

		stalled := tripped.Load()
		if !retryable(err, stalled, ctx) || retry >= DefMaxRetries {
			if stalled {
				err = fmt.Errorf("%w: %w", ErrStalled, err)
			}
			return res, st, fmt.Errorf("supervise: giving up after %d attempt(s): %w", st.Attempts, err)
		}

		// The in-memory checkpoint attached to the failed result is the
		// resume source of choice: its fired-fault mask reflects every
		// event that actually fired (including the fatal one), so resuming
		// does not deterministically replay the failure. The durable file
		// on disk is the pre-failure boundary image, kept for process
		// death, not for in-process retry.
		cp := resume
		if res != nil && res.Checkpoint != nil {
			cp = res.Checkpoint
		}
		if cp == nil {
			return res, st, fmt.Errorf("supervise: attempt %d failed with no checkpoint to resume from: %w", st.Attempts, err)
		}
		if errors.Is(err, sched.ErrClusterLost) {
			st.DevicesRevived += cp.ReviveDevices()
		}
		resume = cp
		st.Retries++
		retriesC.Inc()
		cfg.sleep(ctx, backoff(retry+1))
		if ctx.Err() != nil {
			return res, st, fmt.Errorf("supervise: giving up after %d attempt(s): %w", st.Attempts, ctx.Err())
		}
	}
}

// runOnce builds one attempt's scheduler and cluster and runs the engine.
func runOnce(ctx context.Context, cfg Config, opts sched.Options, resume *sched.Checkpoint) (*sched.Result, error) {
	s, err := cfg.NewScheduler(ctx)
	if err != nil {
		return nil, fmt.Errorf("supervise: scheduler factory: %w", err)
	}
	c, err := cfg.NewCluster()
	if err != nil {
		return nil, fmt.Errorf("supervise: cluster factory: %w", err)
	}
	opts.ResumeFrom = resume
	return sched.Run(ctx, cfg.Workload, s, c, opts)
}

// watch polls prog until the run context ends or the pair count stops
// moving for cfg.StallBudget; onTrip fires once, then the attempt is
// cancelled. The trip actions (counter, flight dump, stats) run on the
// watchdog goroutine strictly before cancel, so by the time Run observes
// the cancellation the post-mortem dump already exists.
func watch(ctx context.Context, cancel context.CancelFunc, cfg Config, prog *sched.Progress, tripped *atomic.Bool, onTrip func()) {
	t := time.NewTicker(max(cfg.StallBudget/8, time.Millisecond))
	defer t.Stop()
	last := prog.Pairs()
	lastMove := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if n := prog.Pairs(); n != last {
			last, lastMove = n, time.Now()
			continue
		}
		if time.Since(lastMove) >= cfg.StallBudget {
			tripped.Store(true)
			onTrip()
			cancel()
			return
		}
	}
}
