package sched_test

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"testing"

	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// simBatch mirrors gpusim's sinkBatch: the event count at which the
// simulator's sink publishes on its own.
const simBatch = 1024

var linkSeries = []string{
	"micco_sim_hostlink_busy_seconds_total", "micco_sim_hostlink_stall_seconds_total",
	"micco_sim_p2plink_busy_seconds_total", "micco_sim_p2plink_stall_seconds_total",
	"micco_sim_interlink_busy_seconds_total", "micco_sim_interlink_stall_seconds_total",
}

// reconcileFixture is a run under memory pressure on two nodes with peer
// fetch on, so every event kind but fault occurs and all six link series
// move, a few thousand events long: the sink publishes on its own
// mid-stage, at stage boundaries, and leaves a tail.
func reconcileFixture(t *testing.T) (*workload.Workload, gpusim.Config) {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 5, Stages: 3, VectorSize: 256, TensorDim: 64, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.3, Dist: workload.Gaussian,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.MI100Nodes(2, 4)
	cfg.PeerFetch = true
	cfg.MemoryBytes = w.TotalUniqueBytes() / 8
	return w, cfg
}

// flushPerPair wraps a scheduler so the simulator's sink publishes before
// every placement: the registry then accumulates pair by pair, the finest
// grain the engine can force, and serves as the reference the batched
// link series are held to (the trace does not carry stall time).
type flushPerPair struct {
	sched.Scheduler
	c *gpusim.Cluster
}

func (f flushPerPair) Assign(p workload.Pair, ctx *sched.Context) int {
	f.c.FlushObserver()
	return f.Scheduler.Assign(p, ctx)
}

func near(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// batchedWithTail requires events to span several of the sink's batches and
// to end in part of one, so the sink has published on its own and the tail
// was left to the flush.
func batchedWithTail(t *testing.T, events []obs.Event) {
	t.Helper()
	if len(events) < 2*simBatch || len(events)%simBatch == 0 {
		t.Fatalf("%d events: want several batches and a tail", len(events))
	}
}

// reconcileLinks holds the six link series of snap to scale times ref's.
func reconcileLinks(t *testing.T, snap, ref *obs.Snapshot, scale float64) {
	t.Helper()
	for _, name := range linkSeries {
		if got, want := snap.Counters[name], scale*ref.Counters[name]; !near(got, want) || want == 0 {
			t.Errorf("%s = %v, per-pair reference %v (must be non-zero)", name, got, want)
		}
	}
}

// TestSnapshotReconcilesWithTrace runs the batching sink's three cases
// traced and watched, for the run checker (runcheck_test.go) to hold each
// registry to its runs' traces and records: a run, a run that dies
// mid-stage, and two clusters feeding one registry at once. What the
// checker cannot see stays here: the link series, which the trace does not
// carry, against a run that publishes pair by pair.
func TestSnapshotReconcilesWithTrace(t *testing.T) {
	w, cfg := reconcileFixture(t)
	micco := func() sched.Scheduler { return core.NewFixed(core.Bounds{0, 2, 0}) }
	// traced runs the workload watched and traced on a new cluster.
	traced := func(reg *obs.Registry, plan *fault.Plan, perPair bool) (*sched.Result, []obs.Event, error) {
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			return nil, nil, err
		}
		s := micco()
		if perPair {
			s = flushPerPair{s, c}
		}
		c.StartTrace()
		res, err := sched.Run(context.Background(), w, s, c, sched.Options{Obs: reg, FaultPlan: plan, Checkpoint: plan != nil})
		return res, c.StopTrace(), err
	}

	t.Run("run", func(t *testing.T) {
		ref, _, err := traced(obs.New(), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		res, events, err := traced(reg, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		batchedWithTail(t, events)
		reconcileLinks(t, res.Metrics, ref.Metrics, 1)
		if res.Total.Evictions == 0 {
			t.Error("the run evicted nothing: the pool no longer stresses memory")
		}
		for i := range res.PerDevice {
			name := `micco_device_mem_peak_bytes{device="` + strconv.Itoa(i) + `"}`
			if got := res.Metrics.Gauges[name]; got <= 0 || got > float64(cfg.MemoryBytes) {
				t.Errorf("%s = %v, want within (0, %d]", name, got, cfg.MemoryBytes)
			}
		}
	})

	t.Run("cluster-lost", func(t *testing.T) {
		plan := &fault.Plan{}
		for d := 0; d < cfg.NumDevices; d++ {
			plan.Events = append(plan.Events, fault.Event{Kind: fault.DeviceLoss, Device: d, Stage: 2, Pair: 100})
		}
		refReg, reg := obs.New(), obs.New()
		if _, _, err := traced(refReg, plan, true); !errors.Is(err, sched.ErrClusterLost) {
			t.Fatalf("reference run: got %v, want ErrClusterLost", err)
		}
		res, events, err := traced(reg, plan, false)
		if !errors.Is(err, sched.ErrClusterLost) {
			t.Fatalf("got %v, want ErrClusterLost", err)
		}
		if res == nil || res.Checkpoint == nil {
			t.Fatal("no checkpoint attached to the failed run")
		}
		batchedWithTail(t, events)
		reconcileLinks(t, reg.Snapshot(), refReg.Snapshot(), 1)
		// The counts of what the dying stage placed — its first pairs and
		// the recovery re-placements — were still pending when it died.
		recs := reg.Decisions()
		midStage := 0
		for i := range recs {
			if recs[i].Stage == 2 || recs[i].Recovery {
				midStage++
			}
		}
		if midStage == 0 {
			t.Fatal("no placement was recorded in the stage the run died in")
		}
	})

	t.Run("two-clusters", func(t *testing.T) {
		ref, _, err := traced(obs.New(), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		var wg sync.WaitGroup
		var events [2][]obs.Event
		var errs [2]error
		for i := range events {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, events[i], errs[i] = traced(reg, nil, false)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Each trace alone has a tail; so must their concatenation, which is
		// what the checker held the shared registry to at the later run's end.
		batchedWithTail(t, append(events[0], events[1]...))
		if err := sched.RegistrySettled(reg); err != nil {
			t.Error(err)
		}
		reconcileLinks(t, reg.Snapshot(), ref.Metrics, 2)
	})
}
