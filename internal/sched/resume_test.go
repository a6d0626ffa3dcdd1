// Resume tests: a checkpoint is the run's placement and fault log, and a
// resume replays it through the engine. The replay must land exactly where
// the checkpointed run was, and a resume the log cannot replay exactly is
// refused.
package sched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"micco/internal/baseline"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/sched"
)

// stopAtStage cancels the run as stage stop begins, so the run fails with its
// checkpoint at that boundary.
type stopAtStage struct {
	sched.Scheduler
	stop   int
	cancel context.CancelFunc
}

func (s *stopAtStage) BeginStage(ctx *sched.Context) {
	if ctx.StageIndex == s.stop {
		s.cancel()
	}
	s.Scheduler.BeginStage(ctx)
}

// stoppedAt makes a run and stops it as stage stop begins (a stop past
// the last stage lets it finish), returning the run's checkpoint at that
// boundary.
func stoppedAt(t *testing.T, run func(context.Context, sched.Scheduler) (*sched.Result, error), stop, stages int) *sched.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := run(ctx, &stopAtStage{Scheduler: baseline.NewGroute(), stop: stop, cancel: cancel})
	if stop < stages && !errors.Is(err, context.Canceled) || stop >= stages && err != nil {
		t.Fatalf("stopping at stage %d: %v", stop, err)
	}
	if res == nil || res.Checkpoint == nil || res.Checkpoint.NextStage() != min(stop, stages) {
		t.Fatalf("stopping at stage %d: no checkpoint at that boundary", stop)
	}
	return res.Checkpoint
}

// sameRun reports where got differs from want in what a resume must
// reproduce bit for bit.
func sameRun(t *testing.T, what string, got, want *sched.Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %v, uninterrupted %v", what, got.Makespan, want.Makespan)
	}
	if got.Total != want.Total || !slices.Equal(got.PerDevice, want.PerDevice) {
		t.Errorf("%s: device stats %+v, uninterrupted %+v", what, got.PerDevice, want.PerDevice)
	}
	if got.Recovery != want.Recovery {
		t.Errorf("%s: recovery %+v, uninterrupted %+v", what, got.Recovery, want.Recovery)
	}
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Errorf("%s: assignments %v, uninterrupted %v", what, got.Assignments, want.Assignments)
	}
	if got.NumericFingerprint != want.NumericFingerprint {
		t.Errorf("%s: fingerprint %v, uninterrupted %v", what, got.NumericFingerprint, want.NumericFingerprint)
	}
}

// TestResumeIsExactAtEveryBoundary checkpoints a faulted run at every stage
// boundary and resumes each checkpoint on a fresh cluster, once from memory
// and once from its decoded durable file. Groute keeps no state, so the
// continuation places as the uninterrupted run did, and every resumed Result
// must equal the uninterrupted one bit for bit. The plan uses all five fault
// kinds and is recoverable; DiscardDeadInputs makes the replay drop dead
// inputs as the run did, keeping their host copies for recovery. The second
// cluster spans two nodes with copy engines, peer fetch and a pool that
// evicts.
func TestResumeIsExactAtEveryBoundary(t *testing.T) {
	w := numericWorkload(t, 23)
	var largest int64
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			largest = max(largest, p.A.Bytes(), p.B.Bytes(), p.Out.Bytes())
		}
	}
	scarce := gpusim.MI100Nodes(2, 2)
	scarce.AsyncCopy, scarce.PeerFetch, scarce.MemoryBytes = true, true, 8*largest
	for name, cfg := range map[string]gpusim.Config{"MI100x4": gpusim.MI100(4), "2x2 async scarce": scarce} {
		t.Run(name, func(t *testing.T) {
			newCluster := func() *gpusim.Cluster {
				c, err := gpusim.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			opts := sched.Options{
				DiscardDeadInputs: true, Numeric: true, NumericSeed: 23, RecordAssignments: true,
				FaultPlan: &fault.Plan{Events: []fault.Event{
					{Kind: fault.TransientTransfer, Failures: 2, Stage: 0, Pair: 1},
					{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 2},
					{Kind: fault.LinkDegrade, Factor: 0.5, Stage: 1, Pair: 3},
					{Kind: fault.MemShrink, Device: 2, Factor: 0.5, Stage: 2, Pair: 0},
					{Kind: fault.DeviceRestore, Device: 1, Stage: 3, Pair: -1},
				}},
			}
			ref, err := sched.Run(context.Background(), w, baseline.NewGroute(), newCluster(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if r := ref.Recovery; r.FaultsInjected != 5 || r.PairsRescheduled == 0 || r.TransientRetries != 2 || r.DevicesRestored != 1 {
				t.Fatalf("the plan did not exercise every kind and the recovery: %+v", r)
			}
			if cfg == scarce && ref.Total.Evictions == 0 {
				t.Fatal("the scarce pool evicted nothing")
			}
			for stop := 0; stop <= len(w.Stages); stop++ {
				dir := t.TempDir()
				o := opts
				o.CheckpointDir = dir
				mem := stoppedAt(t, func(ctx context.Context, s sched.Scheduler) (*sched.Result, error) {
					return sched.Run(ctx, w, s, newCluster(), o)
				}, stop, len(w.Stages))
				disk, err := sched.LoadCheckpointFile(sched.CheckpointPath(dir, w.Name))
				if err != nil {
					t.Fatal(err)
				}
				for from, cp := range map[string]*sched.Checkpoint{"memory": mem, "disk": disk} {
					o := opts
					o.ResumeFrom = cp
					got, err := sched.Run(context.Background(), w, baseline.NewGroute(), newCluster(), o)
					if err != nil {
						t.Fatalf("resume at stage %d from %s: %v", stop, from, err)
					}
					sameRun(t, fmt.Sprintf("resume at stage %d from %s", stop, from), got, ref)
				}
			}
		})
	}
}

// TestResumeRefusesAnotherClusterConfig: the replay is exact only on the
// cluster, dead-input policy and retry policy the log was made under, so a
// resume with any other is refused before it touches the cluster — in
// particular one on the same number of devices with a sixteenth of the
// memory, which a restored state image used to accept and leave devices
// holding more than their pools.
func TestResumeRefusesAnotherClusterConfig(t *testing.T) {
	w := numericWorkload(t, 7)
	cfg := gpusim.MI100(4)
	opts := sched.Options{Checkpoint: true, FaultPlan: &fault.Plan{}}
	cp := stoppedAt(t, func(ctx context.Context, s sched.Scheduler) (*sched.Result, error) {
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sched.Run(ctx, w, s, c, opts)
	}, 2, len(w.Stages))
	small, async := cfg, cfg
	small.MemoryBytes /= 16
	async.AsyncCopy = true
	discard, retry := opts, opts
	discard.DiscardDeadInputs = true
	retry.FaultPlan = &fault.Plan{Retry: &fault.Retry{Max: 1, BaseSeconds: 1e-3, CapSeconds: 1e-3}}
	for _, tc := range []struct {
		name string
		cfg  gpusim.Config
		opts sched.Options
		ok   bool
	}{
		{"the same cluster and options", cfg, opts, true},
		{"a sixteenth of the memory", small, opts, false},
		{"copy engines", async, opts, false},
		{"DiscardDeadInputs", cfg, discard, false},
		{"another retry policy", cfg, retry, false},
	} {
		c, err := gpusim.NewCluster(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := tc.opts
		o.ResumeFrom = cp
		_, err = sched.Run(context.Background(), w, baseline.NewGroute(), c, o)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && !errors.Is(err, sched.ErrCheckpointMismatch):
			t.Errorf("%s: err = %v, want ErrCheckpointMismatch", tc.name, err)
		}
	}
}

// TestResumeRefusesALogThatDoesNotFit: a well-framed file whose log is one
// placement short, one placement long, or names a device the cluster does
// not have decodes — only a replay can tell — and its resume is refused
// with a typed error.
func TestResumeRefusesALogThatDoesNotFit(t *testing.T) {
	w := numericWorkload(t, 7)
	cp := stoppedAt(t, func(ctx context.Context, s sched.Scheduler) (*sched.Result, error) {
		return sched.Run(ctx, w, s, newClusterT(t, 4), sched.Options{Checkpoint: true})
	}, 2, len(w.Stages))
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	// UseNumber keeps the 64-bit stream digest exact through the map.
	var payload map[string]any
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()[20:]))
	dec.UseNumber()
	if err := dec.Decode(&payload); err != nil {
		t.Fatal(err)
	}
	log := payload["placements"].([]any)
	for _, tc := range []struct {
		name       string
		placements []any
		want       error
	}{
		{"one short", log[:len(log)-1], sched.ErrCheckpointMismatch},
		{"one long", append(slices.Clone(log), 0), sched.ErrCheckpointMismatch},
		{"a device past the end", append([]any{4}, log[1:]...), sched.ErrInvalidDevice},
	} {
		p := maps.Clone(payload)
		p["placements"] = tc.placements
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := sched.DecodeCheckpoint(bytes.NewReader(frameCorrupt(raw)))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if _, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 4), sched.Options{ResumeFrom: bad}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestResumeProgressCountsReplay: a resume's replay places the checkpoint's
// pairs through the engine, and Options.Progress counts them, so a watchdog
// sees a long replay move and a fault-free resume ends where the
// uninterrupted run does, at the stream's pair count.
func TestResumeProgressCountsReplay(t *testing.T) {
	w := numericWorkload(t, 7)
	cp := stoppedAt(t, func(ctx context.Context, s sched.Scheduler) (*sched.Result, error) {
		return sched.Run(ctx, w, s, newClusterT(t, 4), sched.Options{Checkpoint: true})
	}, 2, len(w.Stages))
	var prog sched.Progress
	if _, err := sched.Run(context.Background(), w, baseline.NewGroute(), newClusterT(t, 4), sched.Options{ResumeFrom: cp, Progress: &prog}); err != nil {
		t.Fatal(err)
	}
	if got, want := prog.Pairs(), int64(w.NumPairs()); got != want {
		t.Errorf("Progress counted %d pairs, the stream has %d", got, want)
	}
}
