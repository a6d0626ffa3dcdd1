package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"micco/internal/fault"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// liveSpread round-robins across devices, skipping failed ones, so fault
// scenarios with recovery re-placement stay schedulable.
type liveSpread struct{ n int }

func (s *liveSpread) Name() string        { return "live-spread" }
func (s *liveSpread) BeginStage(*Context) {}
func (s *liveSpread) Assign(_ workload.Pair, ctx *Context) int {
	for i := 0; i < ctx.NumGPU; i++ {
		d := (s.n + i) % ctx.NumGPU
		if !ctx.Down.Has(d) {
			s.n = d + 1
			return d
		}
	}
	return 0
}

// propertyWorkload is a chained, operand-sharing deck: ChainRate feeds
// stage outputs into later stages (multi-level dependency partitions) and
// RepeatRate shares operands within a stage (fused packing actually
// shared), so the executor's level batching and reclaim paths are all
// load-bearing for the fingerprint.
func propertyWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 29, Stages: 4, VectorSize: 8, TensorDim: 12, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParallelFusedBitIdentical is the exactness property of level
// execution across pool widths: the numeric fingerprint must be
// bit-identical to the default-width run at every width, and across a
// mid-run device loss whose recovery re-places already-executed pairs.
// The reclaim axis sets the deprecated, ignored Options.NumericReclaim
// both ways and pins that it moves nothing. Run under -race by `make
// check`, this also validates the pool's happens-before edges (job
// hand-off to parked workers, the reclamation fan-out).
func TestParallelFusedBitIdentical(t *testing.T) {
	w := propertyWorkload(t)
	base := Options{Numeric: true, NumericSeed: 17}

	ref, err := Run(context.Background(), w, &liveSpread{}, cluster(t, 4), base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumericFingerprint == 0 {
		t.Fatal("reference run produced a zero fingerprint")
	}

	plan := func() *fault.Plan {
		return &fault.Plan{Events: []fault.Event{
			{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 2},
			{Kind: fault.DeviceRestore, Device: 1, Stage: 3, Pair: 0},
		}}
	}
	for _, pool := range []int{1, 2, 4, 8} {
		for _, reclaim := range []bool{false, true} {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("pool=%d/reclaim=%v/fault=%v", pool, reclaim, faulted)
				t.Run(name, func(t *testing.T) {
					opts := base
					opts.Parallelism = pool
					opts.NumericReclaim = reclaim
					if faulted {
						opts.FaultPlan = plan()
					}
					res, err := Run(context.Background(), w, &liveSpread{}, cluster(t, 4), opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.NumericFingerprint != ref.NumericFingerprint {
						t.Errorf("fingerprint %x diverges from reference %x",
							res.NumericFingerprint, ref.NumericFingerprint)
					}
				})
			}
		}
	}
}

// TestParallelFusedResumeReplay drives the checkpoint/resume path through
// numeric mode: a fatal cluster loss mid-run leaves a stage-boundary
// checkpoint; resuming on a fresh cluster replays the completed prefix,
// runs the numeric stream once at the last boundary, and must land on the uninterrupted fingerprint at every pool width, with the
// deprecated, ignored Options.NumericReclaim set either way.
func TestParallelFusedResumeReplay(t *testing.T) {
	w := propertyWorkload(t)
	base := Options{Numeric: true, NumericSeed: 17}

	ref, err := Run(context.Background(), w, &liveSpread{}, cluster(t, 4), base)
	if err != nil {
		t.Fatal(err)
	}

	fatal := &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceLoss, Device: 0, Stage: 2, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 1, Stage: 2, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 2, Stage: 2, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 3, Stage: 2, Pair: 1},
	}}
	for _, pool := range []int{1, 2, 8} {
		for _, reclaim := range []bool{false, true} {
			t.Run(fmt.Sprintf("pool=%d/reclaim=%v", pool, reclaim), func(t *testing.T) {
				opts := base
				opts.Parallelism = pool
				opts.NumericReclaim = reclaim
				opts.FaultPlan = fatal
				opts.Checkpoint = true
				res, err := Run(context.Background(), w, &liveSpread{}, cluster(t, 4), opts)
				if !errors.Is(err, ErrClusterLost) {
					t.Fatalf("got %v, want ErrClusterLost", err)
				}
				if res == nil || res.Checkpoint == nil {
					t.Fatal("no checkpoint attached to the failed run")
				}
				resume := opts
				resume.FaultPlan = nil
				resume.ResumeFrom = res.Checkpoint
				done, err := Run(context.Background(), w, &liveSpread{}, cluster(t, 4), resume)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if done.NumericFingerprint != ref.NumericFingerprint {
					t.Errorf("resumed fingerprint %x != uninterrupted %x",
						done.NumericFingerprint, ref.NumericFingerprint)
				}
			})
		}
	}
}
