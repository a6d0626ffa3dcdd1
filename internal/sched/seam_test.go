package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"micco/internal/fault"
	"micco/internal/obs"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// cancelAtStage is liveSpread that cancels its run as stage stage begins,
// so the run stops at that stage's first pair with nothing of it placed.
type cancelAtStage struct {
	liveSpread
	stage  int
	cancel context.CancelFunc
}

func (s *cancelAtStage) BeginStage(ctx *Context) {
	if ctx.StageIndex == s.stage {
		s.cancel()
	}
}

// countRunEnds replaces afterRun, for the rest of the test, with a hook that
// counts the Runs that end and then audits as the package's hook does.
func countRunEnds(t *testing.T) *int {
	hook := afterRun
	t.Cleanup(func() { afterRun = hook })
	n := new(int)
	afterRun = func(e *engine, err error) {
		*n++
		if hook != nil {
			hook(e, err)
		}
	}
	return n
}

// checkSpanTree requires one run span, carrying an error attribute iff the
// run failed, and every span's parent to be a span the registry recorded.
func checkSpanTree(t *testing.T, spans []obs.Span, failed bool) {
	t.Helper()
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	runs := 0
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s span %d names parent %d, which was never recorded", s.Name, s.ID, s.Parent)
		}
		if s.Name == "run" {
			runs++
			if _, ok := s.Attrs["error"]; ok != failed {
				t.Errorf("run span error attribute present %v, run failed %v", ok, failed)
			}
		}
	}
	if runs != 1 {
		t.Errorf("%d run spans recorded, want 1", runs)
	}
}

// TestRunLayerSeam crosses every run-boundary layer of the engine — obs,
// checkpoints (off, in memory, durable every second boundary), numerics,
// fault plans (none, recoverable, fatal) and resuming from a stage-2
// checkpoint — and asserts what each layer owes the result on every path:
// metrics iff watched, a checkpoint iff checkpointing (on failure the last
// boundary, with the fatal events marked fired), the fault-free fingerprint,
// complete assignments, the durable cadence, a closed span tree, and exactly
// one call of the audit hook per Run.
func TestRunLayerSeam(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 31, Stages: 5, VectorSize: 6, TensorDim: 12, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	const seed, every, fatalStage = 5, 2, 3
	bg := context.Background()
	ref, err := Run(bg, w, &liveSpread{}, cluster(t, 4), Options{Numeric: true, NumericSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	stopped, err := Run(ctx, w, &cancelAtStage{stage: 2, cancel: cancel}, cluster(t, 4),
		Options{Numeric: true, NumericSeed: seed, Checkpoint: true, RecordAssignments: true})
	if !errors.Is(err, context.Canceled) || stopped == nil || stopped.Checkpoint == nil {
		t.Fatalf("cancelled run: %v, want context.Canceled with a checkpoint", err)
	}
	mid := stopped.Checkpoint
	plans := map[string]func() *fault.Plan{
		"none": func() *fault.Plan { return nil },
		"recoverable": func() *fault.Plan {
			return &fault.Plan{Events: []fault.Event{
				{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 2},
				{Kind: fault.TransientTransfer, Failures: 2, Stage: 2, Pair: 1},
				{Kind: fault.DeviceRestore, Device: 1, Stage: 3, Pair: 0},
			}}
		},
		"fatal": func() *fault.Plan { return allDevicesLost(4, fatalStage) },
	}
	ends := countRunEnds(t)
	for _, watched := range []bool{false, true} {
		for _, ck := range []string{"off", "memory", "dir"} {
			for _, numeric := range []bool{false, true} {
				for _, plan := range []string{"none", "recoverable", "fatal"} {
					for _, resume := range []bool{false, true} {
						name := fmt.Sprintf("obs=%v/checkpoint=%s/numeric=%v/faults=%s/resume=%v", watched, ck, numeric, plan, resume)
						t.Run(name, func(t *testing.T) {
							opts := Options{RecordAssignments: true, FaultPlan: plans[plan]()}
							var reg *obs.Registry
							if watched {
								reg = obs.New()
								opts.Obs = reg
							}
							switch ck {
							case "memory":
								opts.Checkpoint = true
							case "dir":
								opts.CheckpointDir, opts.CheckpointEvery = t.TempDir(), every
							}
							if numeric {
								opts.Numeric, opts.NumericSeed = true, seed
							}
							start, end := 0, len(w.Stages)
							if resume {
								opts.ResumeFrom, start = mid, mid.NextStage()
							}
							fatal := plan == "fatal"
							if fatal {
								end = fatalStage
							}
							*ends = 0
							res, err := Run(bg, w, &liveSpread{}, cluster(t, 4), opts)
							if *ends != 1 {
								t.Errorf("audit hook called %d times, want once", *ends)
							}
							switch {
							case fatal && !errors.Is(err, ErrClusterLost):
								t.Fatalf("err = %v, want ErrClusterLost", err)
							case !fatal && err != nil:
								t.Fatal(err)
							}
							if watched {
								checkSpanTree(t, reg.Spans(), fatal)
							}
							if ck == "dir" {
								checkCadence(t, opts.CheckpointDir, w, reg, start, end, every)
							}
							if fatal && ck == "off" {
								if res != nil {
									t.Error("a failed run without checkpoints returned a result")
								}
								return
							}
							if (res.Metrics != nil) != watched {
								t.Errorf("Metrics set %v, obs on %v", res.Metrics != nil, watched)
							}
							if cp := res.Checkpoint; (cp != nil) != (ck != "off") {
								t.Fatalf("Checkpoint set %v, checkpointing %s", cp != nil, ck)
							} else if cp != nil {
								if cp.NextStage() != end {
									t.Errorf("checkpoint at stage %d, want %d", cp.NextStage(), end)
								}
								for i, fired := range cp.d.FaultsFired {
									if fatal && !fired {
										t.Errorf("fatal event %d not marked fired: a resume would fire it again", i)
									}
								}
							}
							if fatal {
								return
							}
							want := 0.0
							if numeric {
								want = ref.NumericFingerprint
							}
							if res.NumericFingerprint != want {
								t.Errorf("fingerprint %v, fault-free %v", res.NumericFingerprint, want)
							}
							if len(res.Assignments) != len(w.Stages) {
								t.Fatalf("%d assignment stages, want %d", len(res.Assignments), len(w.Stages))
							}
							for si, a := range res.Assignments {
								for pi, dev := range a {
									if dev < 0 {
										t.Errorf("stage %d pair %d has no assignment", si, pi)
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// allDevicesLost loses every one of n devices before pair 1 of stage st.
func allDevicesLost(n, st int) *fault.Plan {
	p := &fault.Plan{}
	for d := 0; d < n; d++ {
		p.Events = append(p.Events, fault.Event{Kind: fault.DeviceLoss, Device: d, Stage: st, Pair: 1})
	}
	return p
}

// checkCadence requires the durable file to hold the last boundary in
// [start, end] the cadence writes (every every-th, and the final one) and,
// when watched, the write counter to count exactly those boundaries.
func checkCadence(t *testing.T, dir string, w *workload.Workload, reg *obs.Registry, start, end, every int) {
	t.Helper()
	writes, last := 0, -1
	for b := start; b <= end; b++ {
		if b%every == 0 || b == len(w.Stages) {
			writes, last = writes+1, b
		}
	}
	disk, err := LoadCheckpointFile(CheckpointPath(dir, w.Name))
	if err != nil {
		t.Fatalf("durable checkpoint: %v", err)
	}
	if disk.NextStage() != last {
		t.Errorf("durable checkpoint at stage %d, want %d", disk.NextStage(), last)
	}
	if reg == nil {
		return
	}
	if got := reg.Counter("micco_checkpoint_writes_total").Value(); got != float64(writes) {
		t.Errorf("%v durable writes, want %d", got, writes)
	}
}

// TestEarlyExitsEndTheRun: a Run that fails after its layers are attached —
// the checkpoint directory cannot be made, the first durable snapshot cannot
// be written, or the numeric replay of a resumed prefix fails — still ends
// through the engine's one exit: the audit hook runs once and the run span
// is closed with the error.
func TestEarlyExitsEndTheRun(t *testing.T) {
	w := smallWorkload(t, 3, 4)
	d := func(id uint64, dim int) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: dim, Batch: 1}
	}
	// Only the numerics object to stage 1: the simulator takes t3 as the
	// operand shape it names, the executor draws the smaller input.
	bad, err := workload.FromStages("numeric-error", [][]workload.Pair{
		{{A: d(1, 16), B: d(2, 16), Out: d(10, 16)}},
		{{A: d(10, 16), B: d(3, 16), Out: d(11, 16)}},
	}, []tensor.Desc{d(1, 16), d(2, 16), d(3, 8)})
	if err != nil {
		t.Fatal(err)
	}
	done, err := Run(context.Background(), bad, &spreadScheduler{}, cluster(t, 2), Options{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	ends := countRunEnds(t)
	for _, tc := range []struct {
		name string
		w    *workload.Workload
		opts func(t *testing.T) Options
	}{
		{"checkpoint dir is a file", w, func(t *testing.T) Options {
			f := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(f, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return Options{CheckpointDir: f}
		}},
		{"first snapshot unwritable", w, func(t *testing.T) Options {
			dir := t.TempDir()
			if err := os.Mkdir(CheckpointPath(dir, w.Name), 0o755); err != nil {
				t.Fatal(err)
			}
			return Options{CheckpointDir: dir}
		}},
		{"numeric replay fails", bad, func(*testing.T) Options {
			return Options{Numeric: true, NumericSeed: 1, ResumeFrom: done.Checkpoint}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			opts := tc.opts(t)
			opts.Obs, opts.Numeric = reg, true
			*ends = 0
			if _, err := Run(context.Background(), tc.w, &spreadScheduler{}, cluster(t, 2), opts); err == nil {
				t.Fatal("the run succeeded")
			}
			if *ends != 1 {
				t.Errorf("audit hook called %d times, want once", *ends)
			}
			checkSpanTree(t, reg.Spans(), true)
		})
	}
}
