// Package chaos is the soak harness of the robustness layer: seeded
// random fault plans crossed with random kill points, every registered
// scheduler and two numeric pool widths. A "kill" simulates process death
// — every piece of in-memory state (scheduler, cluster, engine, checkpoint
// handle) is dropped and the run resumes from the durable checkpoint file
// alone. Each iteration must end with the numeric fingerprint of the
// fault-free baseline, bit for bit; each surviving checkpoint file is also
// probed with seeded corruption (bit flips, truncation) that must be
// rejected with the typed decode errors, never a panic.
//
// Everything is driven by explicit seeds: a soak that fails reproduces
// from its config alone.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"micco"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// Config parameterizes one soak run: Config{Seeds: []int64{1, 2, 3}, Dir:
// dir} is a complete short soak.
type Config struct {
	// Seeds are the chaos seeds; each generates its own workload, fault
	// plan, kill points and corruption probes.
	Seeds []int64
	// Dir is the scratch directory for durable checkpoints. Required.
	Dir string
	// Logf, when non-nil, receives per-seed progress lines (t.Logf).
	Logf func(format string, args ...any)
}

// The soak's fixed crossing: every registered scheduler runs at each of
// pools' numeric Parallelism settings (a GOMAXPROCS-wide pool and a 4-wide
// one) on a devices-wide cluster, under a plan of faultEvents generated
// fault events and up to maxKills process deaths per iteration.
const (
	devices     = 4
	faultEvents = 3
	maxKills    = 2
)

var pools = [...]int{1, 4}

// Result counts what the soak exercised.
type Result struct {
	// Iterations is the number of scheduler×pool runs completed.
	Iterations int
	// Kills is the number of simulated process deaths injected.
	Kills int
	// Resumes is the number of successful disk-only resumes (== Kills when
	// every kill landed before the run finished).
	Resumes int
	// CorruptionProbes is the number of corrupted checkpoint images fed to
	// the decoder (all rejected with typed errors).
	CorruptionProbes int
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// fixedBounds is the constant-bounds predictor backing the micco-optimal
// row of the soak roster (training a model per iteration is not what a
// chaos harness is for; determinism is).
type fixedBounds struct{ b micco.Bounds }

func (f fixedBounds) PredictBounds(workload.Features, int) micco.Bounds { return f.b }

// soakBounds are the reuse bounds used for the micco and micco-optimal
// rows (the paper's default T=(0,2,0) working point).
var soakBounds = micco.Bounds{0, 2, 0}

func buildScheduler(name string) (sched.Scheduler, error) {
	return micco.NewSchedulerByName(name, soakBounds, fixedBounds{soakBounds})
}

// killScheduler cancels the run's context at its trip Assign call,
// simulating the process dying mid-stage. The assignment itself still
// returns a valid device — death is between placements, the only place a
// real crash leaves a consistent durable state to come back to.
type killScheduler struct {
	inner  sched.Scheduler
	at     int
	calls  int
	fired  bool
	cancel context.CancelFunc
}

func (k *killScheduler) Name() string                  { return k.inner.Name() }
func (k *killScheduler) BeginStage(ctx *sched.Context) { k.inner.BeginStage(ctx) }
func (k *killScheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	k.calls++
	if k.calls == k.at && !k.fired {
		k.fired = true
		k.cancel()
	}
	return k.inner.Assign(p, ctx)
}

// Soak runs the full crossing and returns counts, or the first failure
// with enough context (seed, scheduler, pool) to reproduce it.
func Soak(cfg Config) (Result, error) {
	var res Result
	if cfg.Dir == "" {
		return res, fmt.Errorf("chaos: Config.Dir is required")
	}
	if len(cfg.Seeds) == 0 {
		return res, fmt.Errorf("chaos: no seeds")
	}
	for _, seed := range cfg.Seeds {
		if err := soakSeed(cfg, seed, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func soakSeed(cfg Config, seed int64, res *Result) error {
	w, err := workload.Generate(workload.Config{
		Seed: seed, Stages: 4, VectorSize: 6, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		return fmt.Errorf("chaos: seed %d: generate workload: %w", seed, err)
	}
	minPairs := len(w.Stages[0].Pairs)
	for _, st := range w.Stages {
		if len(st.Pairs) < minPairs {
			minPairs = len(st.Pairs)
		}
	}
	plan := fault.Generate(fault.GenConfig{
		Seed: seed, Stages: len(w.Stages), PairsPerStage: minPairs,
		Devices: devices, Events: faultEvents,
	})
	if err := plan.Validate(devices); err != nil {
		return fmt.Errorf("chaos: seed %d: generated plan invalid: %w", seed, err)
	}

	// The fault-free fingerprint is the invariant every chaotic
	// run must land on: one baseline per seed, because the fingerprint is
	// scheduler-, pool- and fault-independent by construction.
	base, err := cleanRun(w, seed)
	if err != nil {
		return fmt.Errorf("chaos: seed %d: baseline run: %w", seed, err)
	}

	iter := 0
	for _, name := range micco.SchedulerNames() {
		for _, pool := range pools {
			iter++
			// One private rng per iteration, derived from (seed, iteration
			// index): kill points and corruption probes are reproducible
			// without being shared across iterations.
			rng := rand.New(rand.NewSource(seed<<16 ^ int64(iter)))
			if err := soakIteration(cfg, w, plan, seed, name, pool, base, rng, res); err != nil {
				return fmt.Errorf("chaos: seed %d scheduler %q pool %d: %w", seed, name, pool, err)
			}
			res.Iterations++
		}
	}
	cfg.logf("chaos: seed %d: %d iterations, %d kills, %d resumes, %d corruption probes",
		seed, iter, res.Kills, res.Resumes, res.CorruptionProbes)
	return nil
}

func cleanRun(w *workload.Workload, seed int64) (float64, error) {
	s, err := buildScheduler("roundrobin")
	if err != nil {
		return 0, err
	}
	c, err := gpusim.NewCluster(gpusim.MI100(devices))
	if err != nil {
		return 0, err
	}
	r, err := sched.Run(context.Background(), w, s, c,
		sched.Options{Numeric: true, NumericSeed: seed})
	if err != nil {
		return 0, err
	}
	return r.NumericFingerprint, nil
}

// soakIteration runs one scheduler×pool cell: up to maxKills
// simulated process deaths, each followed by a corruption probe of the
// on-disk checkpoint and a disk-only resume, then a run to completion and
// the fingerprint assertion.
func soakIteration(cfg Config, w *workload.Workload, plan *fault.Plan, seed int64,
	name string, pool int, base float64, rng *rand.Rand, res *Result) error {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("s%d-%s-p%d", seed, name, pool))
	var resume *sched.Checkpoint
	kills := 0
	for {
		// Simulated process: everything below is built fresh and dropped
		// on death. Only `resume` (loaded from disk) crosses the boundary.
		s, err := buildScheduler(name)
		if err != nil {
			return err
		}
		c, err := gpusim.NewCluster(gpusim.MI100(devices))
		if err != nil {
			return err
		}
		opts := sched.Options{
			Numeric: true, NumericSeed: seed, Parallelism: pool,
			FaultPlan: plan, CheckpointDir: dir, ResumeFrom: resume,
		}
		ctx := context.Background()
		var killer *killScheduler
		if kills < maxKills {
			kctx, cancel := context.WithCancel(ctx)
			defer cancel()
			ctx = kctx
			killer = &killScheduler{inner: s, at: 1 + rng.Intn(w.NumPairs()), cancel: cancel}
			s = killer
		}
		r, err := sched.Run(ctx, w, s, c, opts)
		if err == nil {
			if r.NumericFingerprint != base {
				return fmt.Errorf("fingerprint %x after %d kills, fault-free baseline %x",
					r.NumericFingerprint, kills, base)
			}
			return nil
		}
		if killer == nil || !killer.fired || !errors.Is(err, context.Canceled) {
			return fmt.Errorf("run died for real (not an injected kill): %w", err)
		}
		res.Kills++
		kills++

		// Process death: drop all in-memory state, come back from disk.
		path := sched.CheckpointPath(dir, w.Name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("no durable checkpoint after kill %d: %w", kills, err)
		}
		if err := probeCorruption(raw, rng); err != nil {
			return fmt.Errorf("corruption probe after kill %d: %w", kills, err)
		}
		res.CorruptionProbes++
		resume, err = sched.LoadCheckpointFile(path)
		if err != nil {
			return fmt.Errorf("loading durable checkpoint after kill %d: %w", kills, err)
		}
		res.Resumes++
	}
}

// probeCorruption damages a copy of a valid checkpoint image in a seeded
// random way and requires the decoder to reject it with one of the typed
// sentinel errors — and, via the deferred recover, to never panic.
func probeCorruption(valid []byte, rng *rand.Rand) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decoder panicked on corrupt input: %v", r)
		}
	}()
	bad := append([]byte(nil), valid...)
	switch rng.Intn(3) {
	case 0: // truncate
		bad = bad[:rng.Intn(len(bad))]
	case 1: // flip one bit anywhere
		i := rng.Intn(len(bad))
		bad[i] ^= 1 << uint(rng.Intn(8))
	case 2: // flip a header byte specifically
		i := rng.Intn(20)
		bad[i] ^= 0x40
	}
	// The CRC covers the whole payload and the header is checked field by
	// field, so every single-bit flip and every truncation must be caught.
	cp, derr := sched.DecodeCheckpoint(bytes.NewReader(bad))
	if derr == nil {
		return fmt.Errorf("decoder accepted damaged image (len %d -> %d, cp %v)", len(valid), len(bad), cp != nil)
	}
	if !errors.Is(derr, sched.ErrCheckpointCorrupt) && !errors.Is(derr, sched.ErrCheckpointVersion) {
		return fmt.Errorf("decoder returned untyped error: %v", derr)
	}
	return nil
}
