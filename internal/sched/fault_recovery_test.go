// Fault-injection and recovery tests for the execution engine: the
// robustness property (any fault plan the cluster survives leaves the
// numeric fingerprint bit-identical to a fault-free run), decision-record
// reconciliation under faults, transient retry accounting, and the
// checkpoint/resume round trip after total cluster loss.
package sched_test

import (
	"context"
	"errors"
	"testing"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// faultRoster returns fresh instances of every scheduler (RoundRobin and
// MICCO carry cross-run state, so each run needs its own).
func faultRoster() map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"MICCO":        func() sched.Scheduler { return core.NewFixed(core.Bounds{0, 2, 0}) },
		"Groute":       func() sched.Scheduler { return baseline.NewGroute() },
		"RoundRobin":   func() sched.Scheduler { return baseline.NewRoundRobin() },
		"LocalityOnly": func() sched.Scheduler { return baseline.NewLocalityOnly() },
	}
}

func numericWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	// ChainRate feeds stage outputs into later stages, so a device loss
	// destroys tensors the remaining stream still needs — the recovery
	// closure is exercised, not vacuously empty.
	w, err := workload.Generate(workload.Config{
		Seed: seed, Stages: 4, VectorSize: 6, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newClusterT(t *testing.T, n int) *gpusim.Cluster {
	t.Helper()
	c, err := gpusim.NewCluster(gpusim.MI100(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// faultPlans are the scenarios of the robustness property: mid-stage
// device loss with later restore, transient-failure storms, degraded links
// with a shrunken pool, and a combined plan with a time-triggered loss.
func faultPlans(timeTrigger float64) map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"loss-restore": {Events: []fault.Event{
			{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 1},
			{Kind: fault.DeviceRestore, Device: 1, Stage: 2, Pair: 0},
		}},
		"transient-storm": {Events: []fault.Event{
			{Kind: fault.TransientTransfer, Failures: 3, Stage: 0, Pair: 1},
			{Kind: fault.TransientTransfer, Failures: 5, Stage: 2, Pair: 0},
		}},
		"degrade-shrink": {Events: []fault.Event{
			{Kind: fault.LinkDegrade, Factor: 0.25, Stage: 0, Pair: 0},
			{Kind: fault.MemShrink, Device: 0, Factor: 0.5, Stage: 1, Pair: 1},
			{Kind: fault.LinkDegrade, Factor: 1.0, Stage: 3, Pair: 0},
		}},
		"combo": {Events: []fault.Event{
			{Kind: fault.DeviceLoss, Device: 2, Time: timeTrigger},
			{Kind: fault.TransientTransfer, Failures: 2, Stage: 2, Pair: 1},
			{Kind: fault.LinkDegrade, Factor: 0.5, Stage: 1, Pair: -1},
			{Kind: fault.DeviceLoss, Device: 3, Stage: 3, Pair: 0},
		}},
	}
}

// reconcile checks that the run's decision records plus the fault-charge
// bucket account for every byte and eviction the devices reported.
func reconcile(t *testing.T, reg *obs.Registry, res *sched.Result) {
	t.Helper()
	var h2dp2p, d2h, evictions int64
	for _, rec := range reg.Decisions() {
		h2dp2p += rec.ActualBytes
		d2h += rec.ActualD2HBytes
		evictions += int64(rec.Evictions)
	}
	fc := res.Recovery.FaultCharges
	if got, want := h2dp2p+fc.H2DBytes+fc.P2PBytes, res.Total.H2DBytes+res.Total.P2PBytes; got != want {
		t.Errorf("transfer bytes: decisions+faults = %d, devices = %d", got, want)
	}
	if got, want := d2h+fc.D2HBytes, res.Total.D2HBytes; got != want {
		t.Errorf("D2H bytes: decisions+faults = %d, devices = %d", got, want)
	}
	if got, want := evictions+fc.Evictions, res.Total.Evictions; got != want {
		t.Errorf("evictions: decisions+faults = %d, devices = %d", got, want)
	}
}

// TestFaultedFingerprintsMatchFaultFree is the central robustness property:
// across seeds, schedulers and fault plans, a run the cluster survives
// produces the exact fault-free numeric fingerprint, and its decision
// records still reconcile with the device counters.
func TestFaultedFingerprintsMatchFaultFree(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		w := numericWorkload(t, seed)
		c := newClusterT(t, 4)
		numeric := sched.Options{Numeric: true, NumericSeed: seed}
		for name, mk := range faultRoster() {
			clean, err := sched.Run(context.Background(), w, mk(), c, numeric)
			if err != nil {
				t.Fatalf("seed %d %s fault-free: %v", seed, name, err)
			}
			if clean.NumericFingerprint == 0 {
				t.Fatalf("seed %d %s: zero fault-free fingerprint", seed, name)
			}
			for plan, p := range faultPlans(clean.Makespan * 0.4) {
				reg := obs.New()
				opts := numeric
				opts.FaultPlan = p
				opts.Obs = reg
				res, err := sched.Run(context.Background(), w, mk(), c, opts)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, name, plan, err)
				}
				if res.NumericFingerprint != clean.NumericFingerprint {
					t.Errorf("seed %d %s %s: fingerprint %v != fault-free %v",
						seed, name, plan, res.NumericFingerprint, clean.NumericFingerprint)
				}
				if res.Recovery.FaultsInjected == 0 {
					t.Errorf("seed %d %s %s: no faults fired", seed, name, plan)
				}
				reconcile(t, reg, res)
			}
		}
	}
}

// TestDeviceLossRecoveryDetails pins the observable shape of a mid-stage
// loss: lost unfinished outputs are recomputed on survivors, tagged
// Recovery in the decision stream, and the faulted run cannot be faster
// than the fault-free one.
func TestDeviceLossRecoveryDetails(t *testing.T) {
	w := numericWorkload(t, 7)
	c := newClusterT(t, 4)
	clean, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceLoss, Device: 1, Stage: 2, Pair: 0},
	}}
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, sched.Options{
		FaultPlan: plan, Obs: reg, RecordAssignments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.DevicesLost != 1 || res.Recovery.FaultsInjected != 1 {
		t.Errorf("recovery stats: %+v", res.Recovery)
	}
	if res.Recovery.PairsRescheduled == 0 {
		t.Error("expected recomputed pairs after losing a round-robin device mid-run")
	}
	var recovery int
	for _, rec := range reg.Decisions() {
		if rec.Recovery {
			recovery++
			if rec.Device == 1 {
				t.Errorf("recovery placement on the lost device: %+v", rec)
			}
		}
	}
	if recovery != res.Recovery.PairsRescheduled {
		t.Errorf("recovery decision records = %d, PairsRescheduled = %d", recovery, res.Recovery.PairsRescheduled)
	}
	if res.Makespan < clean.Makespan {
		t.Errorf("faulted makespan %v beat fault-free %v", res.Makespan, clean.Makespan)
	}
	// Device 1 appears in no assignment at or after the loss boundary.
	for si := 2; si < len(res.Assignments); si++ {
		for pi, dev := range res.Assignments[si] {
			if dev == 1 {
				t.Errorf("stage %d pair %d assigned to lost device 1", si, pi)
			}
		}
	}
	if res.Total.Kernels != clean.Total.Kernels+int64(res.Recovery.PairsRescheduled) {
		t.Errorf("kernels = %d, want fault-free %d plus %d recomputes",
			res.Total.Kernels, clean.Total.Kernels, res.Recovery.PairsRescheduled)
	}
}

// TestTransientRetryAccounting checks that every injected transient
// failure is consumed, retried and charged to simulated time.
func TestTransientRetryAccounting(t *testing.T) {
	w := numericWorkload(t, 5)
	c := newClusterT(t, 2)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.TransientTransfer, Failures: 4, Stage: 0, Pair: 0},
	}}
	res, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, sched.Options{FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.TransientRetries != 4 {
		t.Errorf("TransientRetries = %d, want 4", res.Recovery.TransientRetries)
	}
	if res.Recovery.BackoffSimSeconds <= 0 {
		t.Error("no backoff charged")
	}
	if left := c.TransientFailuresLeft(); left != 0 {
		t.Errorf("%d injected failures never consumed", left)
	}

	// A storm larger than the retry budget surfaces as a fatal error.
	exhaust := &fault.Plan{
		Retry: &fault.Retry{Max: 2, BaseSeconds: 1e-3, CapSeconds: 4e-3},
		Events: []fault.Event{
			{Kind: fault.TransientTransfer, Failures: 100, Stage: 0, Pair: 0},
		},
	}
	if _, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, sched.Options{FaultPlan: exhaust}); !errors.Is(err, sched.ErrTransientTransfer) {
		t.Errorf("exhausted retries: got %v, want ErrTransientTransfer", err)
	}
}

// TestClusterLostCheckpointResume is the resumable-run round trip: losing
// every device returns ErrClusterLost with the last stage-boundary
// checkpoint attached; resuming from it — with or without the fault plan —
// completes with the uninterrupted run's exact fingerprint.
func TestClusterLostCheckpointResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts sched.Options
	}{
		{"serial", sched.Options{Numeric: true, NumericSeed: 9, Parallelism: 1}},
		{"parallel", sched.Options{Numeric: true, NumericSeed: 9}},
		// The deprecated NumericReclaim is ignored: this is "serial" again,
		// and pins that setting the field still resumes bit for bit.
		{"reclaim", sched.Options{Numeric: true, NumericSeed: 9, NumericReclaim: true, Parallelism: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := numericWorkload(t, 13)
			c := newClusterT(t, 4)
			clean, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			plan := &fault.Plan{Events: []fault.Event{
				{Kind: fault.DeviceLoss, Device: 1, Stage: 2, Pair: 1},
				{Kind: fault.DeviceLoss, Device: 2, Stage: 2, Pair: 1},
				{Kind: fault.DeviceLoss, Device: 3, Stage: 2, Pair: 1},
				{Kind: fault.DeviceLoss, Device: 0, Stage: 2, Pair: 1},
			}}
			opts := tc.opts
			opts.FaultPlan = plan
			opts.Checkpoint = true
			res, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, opts)
			if !errors.Is(err, sched.ErrClusterLost) {
				t.Fatalf("got %v, want ErrClusterLost", err)
			}
			if res == nil || res.Checkpoint == nil {
				t.Fatal("no checkpoint attached to the failed run")
			}
			cp := res.Checkpoint
			if cp.NextStage() > 2 {
				t.Errorf("checkpoint NextStage = %d, want <= 2", cp.NextStage())
			}
			// Resume with the same plan on a fresh cluster: the fatal events
			// already fired, so the run completes.
			resumeOpts := opts
			resumeOpts.ResumeFrom = cp
			done, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 4), resumeOpts)
			if err != nil {
				t.Fatalf("resume with plan: %v", err)
			}
			if done.NumericFingerprint != clean.NumericFingerprint {
				t.Errorf("resumed fingerprint %v != uninterrupted %v",
					done.NumericFingerprint, clean.NumericFingerprint)
			}
			if done.Checkpoint == nil || done.Checkpoint.NextStage() != len(w.Stages) {
				t.Error("completed resume should carry a final checkpoint")
			}
			// Resume without any plan behaves the same.
			noPlan := tc.opts
			noPlan.ResumeFrom = cp
			done2, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 4), noPlan)
			if err != nil {
				t.Fatalf("resume without plan: %v", err)
			}
			if done2.NumericFingerprint != clean.NumericFingerprint {
				t.Errorf("plan-free resumed fingerprint %v != uninterrupted %v",
					done2.NumericFingerprint, clean.NumericFingerprint)
			}
		})
	}
}

// TestCheckpointFinalResume resumes from a completed run's checkpoint: the
// stage loop is empty, the numeric stream replays in full, and the
// fingerprint matches.
func TestCheckpointFinalResume(t *testing.T) {
	w := numericWorkload(t, 21)
	c := newClusterT(t, 2)
	opts := sched.Options{Numeric: true, NumericSeed: 2, Checkpoint: true, Parallelism: 1}
	full, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Checkpoint == nil || full.Checkpoint.NextStage() != len(w.Stages) {
		t.Fatal("completed run should checkpoint at the final stage boundary")
	}
	opts.ResumeFrom = full.Checkpoint
	replay, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if replay.NumericFingerprint != full.NumericFingerprint {
		t.Errorf("replay fingerprint %v != original %v", replay.NumericFingerprint, full.NumericFingerprint)
	}
	if replay.Makespan != full.Makespan {
		t.Errorf("replay makespan %v != original %v", replay.Makespan, full.Makespan)
	}
}

// TestResumeValidation rejects checkpoints that do not match the run.
func TestResumeValidation(t *testing.T) {
	w := numericWorkload(t, 21)
	c := newClusterT(t, 2)
	full, err := sched.Run(context.Background(), w, baseline.NewGroute(), c, sched.Options{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	other := numericWorkload(t, 22)
	other.Name = "other"
	if _, err := sched.Run(context.Background(), other, baseline.NewGroute(), c,
		sched.Options{ResumeFrom: full.Checkpoint}); err == nil {
		t.Error("resume onto a different workload should fail")
	}
	if _, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 3),
		sched.Options{ResumeFrom: full.Checkpoint}); err == nil {
		t.Error("resume onto a different cluster shape should fail")
	}
}

// TestAssignSkipsDownDevices runs every scheduler through a loss at the
// very first boundary and checks no placement ever lands on the dead
// device while it is down.
func TestAssignSkipsDownDevices(t *testing.T) {
	w := numericWorkload(t, 17)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceLoss, Device: 1, Stage: 0, Pair: -1},
		{Kind: fault.DeviceRestore, Device: 1, Stage: 3, Pair: -1},
	}}
	for name, mk := range faultRoster() {
		c := newClusterT(t, 2)
		res, err := sched.Run(context.Background(), w, mk(), c, sched.Options{
			FaultPlan: plan, RecordAssignments: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for si, devs := range res.Assignments {
			for pi, dev := range devs {
				if si < 3 && dev != 0 {
					t.Errorf("%s: stage %d pair %d on device %d while 1 was down", name, si, pi, dev)
				}
			}
		}
		if res.Recovery.DevicesRestored != 1 {
			t.Errorf("%s: DevicesRestored = %d, want 1", name, res.Recovery.DevicesRestored)
		}
	}
}
