package sched

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// cancelOnAssign cancels a context partway through a run, from inside the
// engine's own scheduler callback, so cancellation tests are deterministic.
type cancelOnAssign struct {
	inner  Scheduler
	cancel context.CancelFunc
	after  int
	calls  int
}

func (c *cancelOnAssign) Name() string            { return "cancel-on-assign" }
func (c *cancelOnAssign) BeginStage(ctx *Context) { c.inner.BeginStage(ctx) }
func (c *cancelOnAssign) Assign(p workload.Pair, ctx *Context) int {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.inner.Assign(p, ctx)
}

// TestConcurrentEngineMatchesSerial is the determinism contract of the
// numeric engine across pool widths: every Result field except the real
// wall-clock SchedOverhead must be bit-identical between Parallelism 1 and
// pools of several sizes.
func TestConcurrentEngineMatchesSerial(t *testing.T) {
	w := smallWorkload(t, 4, 8)
	run := func(parallelism int) *Result {
		t.Helper()
		c := cluster(t, 3)
		res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{
			Numeric:           true,
			NumericSeed:       11,
			Parallelism:       parallelism,
			RecordAssignments: true,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		res.SchedOverhead = 0 // real host time, legitimately varies
		return res
	}
	want := run(1)
	if want.NumericFingerprint == 0 {
		t.Fatal("Parallelism 1 produced a zero fingerprint")
	}
	for _, par := range []int{0, 2, 8} {
		got := run(par)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d result diverges from parallelism 1:\n got %+v\nwant %+v", par, got, want)
		}
	}
}

// TestConcurrentEngineChainedWorkload exercises the dependency graph: a
// chained workload (stage outputs feed later stages) must produce the
// same fingerprint at every pool width.
func TestConcurrentEngineChainedWorkload(t *testing.T) {
	w := smallWorkload(t, 5, 6)
	fingerprint := func(parallelism int) float64 {
		t.Helper()
		c := cluster(t, 2)
		res, err := Run(context.Background(), w, &fixedScheduler{dev: 0}, c, Options{
			Numeric: true, NumericSeed: 5, Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res.NumericFingerprint
	}
	want := fingerprint(1)
	for _, par := range []int{2, 4} {
		if got := fingerprint(par); got != want {
			t.Errorf("parallelism %d fingerprint = %v, want %v", par, got, want)
		}
	}
}

// TestRunCancelledBeforeStart: a nil context runs as Background, and a
// cancelled one is refused before the engine exists — its error, no Result,
// no after-run hook.
func TestRunCancelledBeforeStart(t *testing.T) {
	w := smallWorkload(t, 2, 6)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		err  error
		ends int
	}{
		{"nil", nil, nil, 1},
		{"cancelled", cancelled, context.Canceled, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ends := countRunEnds(t)
			res, err := Run(tc.ctx, w, &spreadScheduler{}, cluster(t, 2), Options{})
			if !errors.Is(err, tc.err) || (res == nil) != (tc.err != nil) {
				t.Errorf("Run = %v, %v; want error %v", res, err, tc.err)
			}
			if *ends != tc.ends {
				t.Errorf("the after-run hook ran %d times, want %d", *ends, tc.ends)
			}
		})
	}
}

func TestRunCancelledMidRun(t *testing.T) {
	w := smallWorkload(t, 4, 8)
	for _, par := range []int{1, 4} {
		c := cluster(t, 2)
		ctx, cancel := context.WithCancel(context.Background())
		s := &cancelOnAssign{inner: &spreadScheduler{}, cancel: cancel, after: 3}
		_, err := Run(ctx, w, s, c, Options{Numeric: true, NumericSeed: 2, Parallelism: par})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if s.calls >= w.NumPairs() {
			t.Errorf("parallelism %d: engine ran all %d pairs after cancellation", par, s.calls)
		}
	}
}

func TestRunNilArgumentsTyped(t *testing.T) {
	w := smallWorkload(t, 1, 4)
	c := cluster(t, 1)
	cases := []struct {
		name string
		w    *workload.Workload
		s    Scheduler
		c    *gpusim.Cluster
	}{
		{"nil workload", nil, &spreadScheduler{}, c},
		{"nil scheduler", w, nil, c},
		{"nil cluster", w, &spreadScheduler{}, nil},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.w, tc.s, tc.c, Options{}); !errors.Is(err, ErrNilArgument) {
			t.Errorf("%s: err = %v, want ErrNilArgument", tc.name, err)
		}
	}
}

// TestRunInvalidDeviceTyped is the table of the engine's refusal of a
// placement: a device below 0, one past the last, and one a fault took down.
// Each run is watched and traced, so a device that slipped past the refusal
// would reach the decision record and the simulator; Run must return
// ErrInvalidDevice, and the audit and the run checker pass on what the
// failed run left.
func TestRunInvalidDeviceTyped(t *testing.T) {
	w := smallWorkload(t, 2, 4)
	lose1 := &fault.Plan{Events: []fault.Event{{Kind: fault.DeviceLoss, Stage: 1, Pair: 1, Device: 1}}}
	for _, tc := range []struct {
		name string
		dev  int
		plan *fault.Plan
	}{
		{"negative", -1, nil},
		{"NumGPU", 2, nil},
		{"lost", 1, lose1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ends := countRunEnds(t)
			c := cluster(t, 2)
			c.StartTrace()
			_, err := Run(context.Background(), w, &fixedScheduler{dev: tc.dev}, c, Options{Obs: obs.New(), FaultPlan: tc.plan})
			if !errors.Is(err, ErrInvalidDevice) {
				t.Errorf("err = %v, want ErrInvalidDevice", err)
			}
			if *ends != 1 {
				t.Errorf("the after-run hook ran %d times, want once", *ends)
			}
		})
	}
}

func TestRunOutOfMemoryTyped(t *testing.T) {
	w := smallWorkload(t, 2, 8)
	cfg := gpusim.MI100(1)
	cfg.MemoryBytes = 1 << 10 // far below any single contraction
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), w, &fixedScheduler{dev: 0}, c, Options{}); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestPoolSizeResolution pins the pool width every Parallelism value
// resolves to: N for N > 1, GOMAXPROCS for 0 and — as it always has, the
// old inline mode having fanned each batch over GOMAXPROCS goroutines —
// for 1. The ladder's deck_numeric set-up runs a Parallelism 1 cross-check
// whose cost depends on it.
func TestPoolSizeResolution(t *testing.T) {
	// Four procs, a width that neither Parallelism 1 nor 2 is, for the
	// table's length: N > 1 is then told from GOMAXPROCS on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, parallelism := range []int{0, 1, 2, 3} {
		want, procs := parallelism, runtime.GOMAXPROCS(0)
		if parallelism <= 1 {
			want = procs
		}
		if got := (Options{Parallelism: parallelism}).PoolSize(); got != want {
			t.Errorf("Parallelism %d: PoolSize() = %d, want %d", parallelism, got, want)
		}
		if now := runtime.GOMAXPROCS(0); now != procs {
			t.Errorf("Parallelism %d: PoolSize() moved GOMAXPROCS from %d to %d", parallelism, procs, now)
		}
	}
}

// TestNumericErrorCarriesCheckpoint: a contraction that fails in the
// numeric executor ends the run like any other mid-run failure — at every
// pool width, with Checkpoint set, Run returns the partial Result carrying
// the last stage-boundary checkpoint next to the error, which names the
// stage. Only the numerics can object to the stream: stage 1 describes
// input t3 with the shape the simulator expects of an operand, while the
// tensor the executor drew for it is the smaller one the input list
// declares.
func TestNumericErrorCarriesCheckpoint(t *testing.T) {
	d := func(id uint64, dim int) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: dim, Batch: 1}
	}
	w, err := workload.FromStages("numeric-error", [][]workload.Pair{
		{{A: d(1, 16), B: d(2, 16), Out: d(10, 16)}},
		{{A: d(10, 16), B: d(3, 16), Out: d(11, 16)}},
	}, []tensor.Desc{d(1, 16), d(2, 16), d(3, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 1, 2, 8} {
		res, err := Run(context.Background(), w, &spreadScheduler{}, cluster(t, 2), Options{
			Numeric: true, NumericSeed: 1, Parallelism: par, Checkpoint: true,
		})
		if err == nil || !strings.Contains(err.Error(), "stage 1") || !strings.Contains(err.Error(), "shape mismatch") {
			t.Fatalf("parallelism %d: err = %v, want stage 1's shape mismatch", par, err)
		}
		if res == nil || res.Checkpoint == nil {
			t.Fatalf("parallelism %d: numeric failure dropped the partial result and its checkpoint", par)
		}
		if got := res.Checkpoint.NextStage(); got != 1 {
			t.Errorf("parallelism %d: checkpoint at stage %d, want 1 (the last boundary before the failure)", par, got)
		}
	}
}
