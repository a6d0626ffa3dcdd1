package chaos

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"micco"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestResumeChain takes one run through every way a checkpoint comes back.
// Killed mid-stage, it resumes from its durable file alone. The resumed run
// loses its last device; its in-memory checkpoint, with the device that was
// already down at its boundary revived, resumes to completion. The completed
// run's final durable file, resumed once more, replays the whole run — the
// revive included — to the same Result.
func TestResumeChain(t *testing.T) {
	const seed = 5
	w, err := workload.Generate(workload.Config{
		Seed: seed, Stages: 4, VectorSize: 6, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanRun(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := sched.Options{
		Numeric: true, NumericSeed: seed, RecordAssignments: true, CheckpointDir: dir,
		FaultPlan: &fault.Plan{Events: []fault.Event{
			{Kind: fault.DeviceLoss, Device: 3, Stage: 1, Pair: 1},
			{Kind: fault.DeviceLoss, Device: 2, Stage: 2, Pair: 1},
			{Kind: fault.DeviceLoss, Device: 1, Stage: 2, Pair: 1},
			{Kind: fault.DeviceLoss, Device: 0, Stage: 2, Pair: 1},
		}},
	}
	run := func(ctx context.Context, s sched.Scheduler, resume *sched.Checkpoint) (*sched.Result, error) {
		c, err := gpusim.NewCluster(gpusim.MI100(devices))
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.ResumeFrom = resume
		return sched.Run(ctx, w, s, c, o)
	}
	load := func(stage int) *sched.Checkpoint {
		t.Helper()
		cp, err := sched.LoadCheckpointFile(sched.CheckpointPath(dir, w.Name))
		if err != nil {
			t.Fatal(err)
		}
		if cp.NextStage() != stage {
			t.Fatalf("durable checkpoint at stage %d, want %d", cp.NextStage(), stage)
		}
		return cp
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &killScheduler{inner: micco.NewGroute(), at: len(w.Stages[0].Pairs) + 3, cancel: cancel}
	if _, err := run(ctx, killer, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v, want context.Canceled", err)
	}
	lost, err := run(context.Background(), micco.NewGroute(), load(1))
	if !errors.Is(err, sched.ErrClusterLost) {
		t.Fatalf("run resumed from disk: %v, want ErrClusterLost", err)
	}
	cp := lost.Checkpoint
	if cp.NextStage() != 2 {
		t.Fatalf("lost run's checkpoint at stage %d, want 2", cp.NextStage())
	}
	if n := cp.ReviveDevices(); n != 1 {
		t.Fatalf("ReviveDevices revived %d devices, want device 3 alone", n)
	}
	done, err := run(context.Background(), micco.NewGroute(), cp)
	if err != nil {
		t.Fatalf("revived run: %v", err)
	}
	if done.NumericFingerprint != clean {
		t.Errorf("fingerprint %v, fault-free %v", done.NumericFingerprint, clean)
	}
	again, err := run(context.Background(), micco.NewGroute(), load(len(w.Stages)))
	if err != nil {
		t.Fatalf("final checkpoint resumed: %v", err)
	}
	if again.Makespan != done.Makespan || again.Total != done.Total || !reflect.DeepEqual(again.PerDevice, done.PerDevice) ||
		again.Recovery != done.Recovery || !reflect.DeepEqual(again.Assignments, done.Assignments) ||
		again.NumericFingerprint != done.NumericFingerprint {
		t.Errorf("the final checkpoint replays to\n%+v\nthe run it records was\n%+v", again, done)
	}
}
