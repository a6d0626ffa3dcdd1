package supervise_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"micco/internal/baseline"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/obs/obshttp"
	"micco/internal/sched"
	"micco/internal/supervise"
	"micco/internal/tensor"
	"micco/internal/workload"
)

func numericWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: seed, Stages: 4, VectorSize: 6, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newCluster(t testing.TB, n int) *gpusim.Cluster {
	t.Helper()
	c, err := gpusim.NewCluster(gpusim.MI100(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cleanFingerprint is the fault-free fingerprint every
// supervised run must reproduce bit for bit.
func cleanFingerprint(t *testing.T, w *workload.Workload, seed int64) float64 {
	t.Helper()
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newCluster(t, 4),
		sched.Options{Numeric: true, NumericSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.NumericFingerprint
}

func factories(t *testing.T) (func(context.Context) (sched.Scheduler, error), func() (*gpusim.Cluster, error)) {
	t.Helper()
	newSched := func(context.Context) (sched.Scheduler, error) { return baseline.NewRoundRobin(), nil }
	newCluster := func() (*gpusim.Cluster, error) { return gpusim.NewCluster(gpusim.MI100(4)) }
	return newSched, newCluster
}

// TestSupervisorRecoversClusterLost: early losses strand failed devices in
// the checkpoint, a later loss kills the last survivor; the supervisor
// revives the snapshot's dead devices and resumes to the fault-free
// fingerprint.
func TestSupervisorRecoversClusterLost(t *testing.T) {
	w := numericWorkload(t, 11)
	want := cleanFingerprint(t, w, 11)
	newSched, newClus := factories(t)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceLoss, Device: 3, Stage: 1, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 2, Stage: 1, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 0, Stage: 2, Pair: 1},
	}}
	res, st, err := supervise.Run(context.Background(), supervise.Config{
		Workload: w, NewScheduler: newSched, NewCluster: newClus,
		Run:   sched.Options{Numeric: true, NumericSeed: 11, FaultPlan: plan},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats %+v)", err, st)
	}
	if st.Retries != 1 || st.Attempts != 2 {
		t.Errorf("stats = %+v, want exactly one retry over two attempts", st)
	}
	if st.DevicesRevived != 3 {
		t.Errorf("DevicesRevived = %d, want 3 (devices 1..3 dead in the stage-2 snapshot)", st.DevicesRevived)
	}
	if res.NumericFingerprint != want {
		t.Errorf("fingerprint %x after supervised recovery, want fault-free %x", res.NumericFingerprint, want)
	}
}

// staller wraps a scheduler; on its trip call it blocks inside Assign
// until the attempt context is cancelled — the shape of a wedged
// scheduler the engine's per-pair cancellation checks cannot interrupt.
type staller struct {
	sched.Scheduler
	ctx     context.Context
	atCall  int
	calls   int
	armed   *atomic.Bool
	stalled *atomic.Bool
}

func (s *staller) Assign(p workload.Pair, ctx *sched.Context) int {
	s.calls++
	if s.calls == s.atCall && s.armed.CompareAndSwap(true, false) {
		s.stalled.Store(true)
		<-s.ctx.Done()
	}
	return s.Scheduler.Assign(p, ctx)
}

// TestSupervisorWatchdogRecoversStall: a scheduler stalls mid-stage on the
// first attempt; the watchdog trips within its budget, dumps the flight
// recorder, cancels, and the resumed attempt completes with the fault-free
// fingerprint. The supervisor counters reconcile with Stats and the dump
// is served at /flight?dump=1.
func TestSupervisorWatchdogRecoversStall(t *testing.T) {
	w := numericWorkload(t, 13)
	want := cleanFingerprint(t, w, 13)

	reg := obs.New()
	reg.SetFlightRecorder(obs.NewFlightRecorder())
	var armed, stalled atomic.Bool
	armed.Store(true)
	newSched := func(ctx context.Context) (sched.Scheduler, error) {
		return &staller{Scheduler: baseline.NewRoundRobin(), ctx: ctx, atCall: 5, armed: &armed, stalled: &stalled}, nil
	}

	start := time.Now()
	res, st, err := supervise.Run(context.Background(), supervise.Config{
		Workload:     w,
		NewScheduler: newSched,
		NewCluster:   func() (*gpusim.Cluster, error) { return gpusim.NewCluster(gpusim.MI100(4)) },
		Run:          sched.Options{Numeric: true, NumericSeed: 13, Obs: reg},
		StallBudget:  80 * time.Millisecond,
		Sleep:        func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v (stats %+v)", err, st)
	}
	if !stalled.Load() {
		t.Fatal("staller never engaged; test exercised nothing")
	}
	if st.WatchdogTrips != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want one watchdog trip and one retry", st)
	}
	// The stall plus cancellation plus resume must fit a small multiple of
	// the budget: recovery within budget, not eventual recovery.
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("recovery took %v, want well under 2s for an 80ms budget", took)
	}
	if res.NumericFingerprint != want {
		t.Errorf("fingerprint %x after stall recovery, want fault-free %x", res.NumericFingerprint, want)
	}

	if v := reg.Counter("micco_watchdog_trips_total").Value(); int(v) != st.WatchdogTrips {
		t.Errorf("micco_watchdog_trips_total = %v, stats say %d", v, st.WatchdogTrips)
	}
	if v := reg.Counter("micco_supervisor_retries_total").Value(); int(v) != st.Retries {
		t.Errorf("micco_supervisor_retries_total = %v, stats say %d", v, st.Retries)
	}

	dump := reg.FlightRecorder().LastDump()
	if dump == nil || !strings.Contains(dump.Reason, "watchdog") {
		t.Fatalf("flight recorder dump = %+v, want a watchdog-tagged dump", dump)
	}

	// The dump is what /flight?dump=1 serves.
	rec := httptest.NewRecorder()
	obshttp.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/flight?dump=1", nil))
	if rec.Code != 200 {
		t.Fatalf("/flight?dump=1 = %d", rec.Code)
	}
	var snap struct{ Reason string }
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/flight?dump=1 body not a flight snapshot: %v", err)
	}
	if !strings.Contains(snap.Reason, "watchdog") {
		t.Errorf("/flight?dump=1 reason = %q, want the watchdog dump", snap.Reason)
	}
}

// badScheduler assigns every pair out of range — a scheduler bug, not a
// recoverable fault.
type badScheduler struct{}

func (badScheduler) Name() string                             { return "bad" }
func (badScheduler) BeginStage(*sched.Context)                {}
func (badScheduler) Assign(workload.Pair, *sched.Context) int { return 99 }

// TestSupervisorGivesUpOnNonRetryable: configuration and scheduler bugs
// surface on the first attempt instead of being retried.
func TestSupervisorGivesUpOnNonRetryable(t *testing.T) {
	w := numericWorkload(t, 17)
	_, st, err := supervise.Run(context.Background(), supervise.Config{
		Workload:     w,
		NewScheduler: func(context.Context) (sched.Scheduler, error) { return badScheduler{}, nil },
		NewCluster:   func() (*gpusim.Cluster, error) { return gpusim.NewCluster(gpusim.MI100(4)) },
		Run:          sched.Options{},
		Sleep:        func(time.Duration) {},
	})
	if !errors.Is(err, sched.ErrInvalidDevice) {
		t.Fatalf("err = %v, want ErrInvalidDevice", err)
	}
	if st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want a single unretried attempt", st)
	}
}

// TestSupervisorParentCancelNotRetried: the caller's own cancellation is
// honored, never treated as a stall.
func TestSupervisorParentCancelNotRetried(t *testing.T) {
	w := numericWorkload(t, 19)
	newSched, newClus := factories(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := supervise.Run(ctx, supervise.Config{
		Workload: w, NewScheduler: newSched, NewCluster: newClus,
		Run:   sched.Options{},
		Sleep: func(time.Duration) {},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Retries != 0 {
		t.Errorf("stats = %+v: a cancelled run must not be retried", st)
	}
}

// TestSupervisorResumeFromDisk: an attempt killed mid-run (simulated
// process death: all in-memory state dropped) leaves a durable checkpoint;
// a brand-new supervisor resumes it from disk alone and reproduces the
// fault-free fingerprint.
func TestSupervisorResumeFromDisk(t *testing.T) {
	w := numericWorkload(t, 23)
	want := cleanFingerprint(t, w, 23)
	dir := t.TempDir()

	// First process: cancel mid-run after a few placements.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	killer := &funcScheduler{inner: baseline.NewRoundRobin(), hook: func() {
		if calls++; calls == 2*len(w.Stages[0].Pairs)+3 {
			cancel()
		}
	}}
	_, err := sched.Run(ctx, w, killer, newCluster(t, 4),
		sched.Options{Numeric: true, NumericSeed: 23, CheckpointDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first process: err = %v, want context.Canceled", err)
	}

	// Second process: nothing in memory, resume from the directory.
	newSched, newClus := factories(t)
	res, st, err := supervise.Run(context.Background(), supervise.Config{
		Workload: w, NewScheduler: newSched, NewCluster: newClus,
		Run:            sched.Options{Numeric: true, NumericSeed: 23, CheckpointDir: dir},
		Sleep:          func(time.Duration) {},
		ResumeFromDisk: true,
	})
	if err != nil {
		t.Fatalf("resume from disk: %v", err)
	}
	if !st.ResumedFromDisk {
		t.Error("ResumedFromDisk not reported; the run started from scratch")
	}
	if res.NumericFingerprint != want {
		t.Errorf("fingerprint %x after disk resume, want %x", res.NumericFingerprint, want)
	}
}

// funcScheduler invokes hook before each delegated Assign.
type funcScheduler struct {
	inner sched.Scheduler
	hook  func()
}

func (f *funcScheduler) Name() string                  { return f.inner.Name() }
func (f *funcScheduler) BeginStage(ctx *sched.Context) { f.inner.BeginStage(ctx) }
func (f *funcScheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	f.hook()
	return f.inner.Assign(p, ctx)
}

// TestFailedRunsKeepTheirSpanTree: a run that dies closes its run span and
// its open stage span, marked with the error, so the stage and recovery
// spans it already recorded keep their parent. On one shared registry: a
// run killed by losing every device, then a supervised run whose first
// attempt dies the same way and whose retry finishes. Every recorded span's
// parent must be 0 or a recorded span, and each of the three attempts must
// have left one run span, the two that died marked with their error.
func TestFailedRunsKeepTheirSpanTree(t *testing.T) {
	w := numericWorkload(t, 11)
	reg := obs.New()
	lossAt := func(st int, devs ...int) []fault.Event {
		var evs []fault.Event
		for _, d := range devs {
			evs = append(evs, fault.Event{Kind: fault.DeviceLoss, Device: d, Stage: st, Pair: 1})
		}
		return evs
	}
	check := func(what string, wantRuns, wantFailed int) {
		t.Helper()
		spans := reg.Spans()
		ids := make(map[uint64]bool, len(spans))
		for _, s := range spans {
			ids[s.ID] = true
		}
		runs, failed := 0, 0
		for _, s := range spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: %s span %d names parent %d, which was never recorded", what, s.Name, s.ID, s.Parent)
			}
			if s.Name == "run" {
				runs++
				if s.Attrs["error"] != "" {
					failed++
				}
			}
		}
		if runs != wantRuns || failed != wantFailed {
			t.Errorf("%s: %d run spans, %d marked failed; want %d and %d", what, runs, failed, wantRuns, wantFailed)
		}
	}

	_, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newCluster(t, 4), sched.Options{
		Obs: reg, FaultPlan: &fault.Plan{Events: lossAt(2, 1, 2, 3, 0)},
	})
	if !errors.Is(err, sched.ErrClusterLost) {
		t.Fatalf("err = %v, want ErrClusterLost", err)
	}
	check("fatal run", 1, 1)

	newSched, newClus := factories(t)
	_, st, err := supervise.Run(context.Background(), supervise.Config{
		Workload: w, NewScheduler: newSched, NewCluster: newClus,
		Run:   sched.Options{Obs: reg, FaultPlan: &fault.Plan{Events: append(lossAt(1, 3, 2, 1), lossAt(2, 0)...)}},
		Sleep: func(time.Duration) {},
	})
	if err != nil || st.Retries != 1 {
		t.Fatalf("supervised run: %v after %d retries, want success after one", err, st.Retries)
	}
	check("supervised run", 3, 2)
}
