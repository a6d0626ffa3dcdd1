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

// reconcileTrace holds snap's simulator series to events: counts, bytes, flops
// and histogram counts exactly, float-second sums to 1e-12 relative (a
// batched sum may differ from the per-event order in the last ulp only).
func reconcileTrace(t *testing.T, snap *obs.Snapshot, events []obs.Event) {
	t.Helper()
	if len(events) < 2*simBatch || len(events)%simBatch == 0 {
		t.Fatalf("%d events: want several batches and a tail", len(events))
	}
	type agg struct {
		n, bytes int64
		sec      float64
	}
	per := map[obs.EventKind]*agg{}
	var flops int64
	for _, e := range events {
		a := per[e.Kind]
		if a == nil {
			a = &agg{}
			per[e.Kind] = a
		}
		a.n++
		a.bytes += e.Bytes
		a.sec += e.Duration()
		if e.Kind == obs.EventKernel {
			flops += e.FLOPs
		}
	}
	for k := obs.EventKernel; k <= obs.EventFault; k++ {
		a := per[k]
		if a == nil {
			a = &agg{}
		}
		kind := "{kind=" + strconv.Quote(k.String()) + "}"
		if got := snap.Counters["micco_sim_events_total"+kind]; got != float64(a.n) {
			t.Errorf("events%s = %v, trace has %d", kind, got, a.n)
		}
		if got := snap.Counters["micco_sim_bytes_total"+kind]; got != float64(a.bytes) {
			t.Errorf("bytes%s = %v, trace has %d", kind, got, a.bytes)
		}
		if got := snap.Counters["micco_sim_busy_seconds_total"+kind]; !near(got, a.sec) {
			t.Errorf("busy%s = %v, trace sums to %v", kind, got, a.sec)
		}
		h := snap.Histograms["micco_sim_seconds"+kind]
		if h.Count != a.n {
			t.Errorf("histogram%s count = %d, trace has %d", kind, h.Count, a.n)
		}
		if !near(h.Sum, a.sec) {
			t.Errorf("histogram%s sum = %v, trace sums to %v", kind, h.Sum, a.sec)
		}
	}
	if got := snap.Counters["micco_sim_flops_total"]; got != float64(flops) {
		t.Errorf("flops = %v, trace kernels sum to %d", got, flops)
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

// reconcilePatterns holds snap's reuse-pattern counters to the decision
// records: one count per placement recorded, under its pattern.
func reconcilePatterns(t *testing.T, snap *obs.Snapshot, recs []obs.DecisionRecord) {
	t.Helper()
	var want [obs.NumReusePatterns]float64
	for i := range recs {
		want[recs[i].Pattern]++
	}
	for p, n := range want {
		name := `micco_sched_pattern_total{pattern="` + obs.ReusePattern(p).String() + `"}`
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %v, the decision records hold %v", name, got, n)
		}
	}
}

// TestSnapshotReconcilesWithTrace pins the batching sink's contract from
// the outside: whatever the trace recorded, the registry holds — in the
// snapshot Run takes (the batch tail included), after a run that died
// mid-stage, and when two clusters feed one registry at once — and so do
// the engine's batched pattern counters, whatever the decision log holds.
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
		reconcileTrace(t, res.Metrics, events)
		reconcileLinks(t, res.Metrics, ref.Metrics, 1)
		reconcilePatterns(t, res.Metrics, reg.Decisions())
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
		reconcileTrace(t, reg.Snapshot(), events)
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
		reconcilePatterns(t, reg.Snapshot(), recs)
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
		// what the shared registry is held to.
		reconcileTrace(t, reg.Snapshot(), append(events[0], events[1]...))
		reconcileLinks(t, reg.Snapshot(), ref.Metrics, 2)
		reconcilePatterns(t, reg.Snapshot(), reg.Decisions())
	})
}
