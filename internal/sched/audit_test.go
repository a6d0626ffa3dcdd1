package sched

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestMain hangs the simulator's structural audit and the run checker
// (runcheck_test.go) on the end of every Run this package's tests make,
// finished or failed. Benchmarks run without them: an audit walks every
// record, block and device. A registry left holding records that no run
// accounts for fails the binary.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f == nil || f.Value.String() == "" {
		afterRun = func(e *engine, err error) {
			if err := e.c.Audit(); err != nil {
				panic(err)
			}
			if err := runs.check(e, err); err != nil {
				panic(err)
			}
		}
	}
	code := m.Run()
	if err := runs.unsettled(); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// WithoutAudit takes the audit off every Run for the rest of t, for a test
// in either of this package's test packages that measures what a run
// allocates: an audit allocates.
func WithoutAudit(t testing.TB) {
	hook := afterRun
	afterRun = nil
	t.Cleanup(func() { afterRun = hook })
}

// TestSelfPairLastUseIsDiscarded: a tensor contracted with itself at its
// last use has one last use, carried by the A side, and DiscardDeadInputs
// drops it from every memory. (Both sides used to write one flag slot, B
// last, and the engine skips B when it is A: nothing was discarded.)
func TestSelfPairLastUseIsDiscarded(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1} }
	w, err := workload.FromStages("self", [][]workload.Pair{{{A: d(1), B: d(1), Out: d(2)}}}, []tensor.Desc{d(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stages[0].Pairs[0].LastUse; got != [2]bool{true, false} {
		t.Errorf("LastUse of a self-pair = %v, want [true false]", got)
	}
	c := cluster(t, 2)
	if _, err := Run(context.Background(), w, &fixedScheduler{dev: 1}, c, Options{DiscardDeadInputs: true}); err != nil {
		t.Fatal(err)
	}
	if !c.HoldersMask(1).Empty() || c.HostHolds(1) {
		t.Errorf("dead self-pair input survives: holders %v, host copy %v", c.HoldersMask(1).AppendTo(nil), c.HostHolds(1))
	}
	if c.HoldersMask(2).Empty() {
		t.Error("the pair's output is gone too")
	}
}

// TestRepeatRunAllocatesOnlyTheEnginesOwn runs one generated workload twice
// and more through Run on one 4096-device cluster. The numbering is the
// workload's, made once; the cluster is bound to it by the first run and
// finds itself bound by the next; the simulator's records, words and blocks
// are sized by the first run. What a repeat run allocates is the engine's
// handful of per-run values, whatever the pair count.
func TestRepeatRunAllocatesOnlyTheEnginesOwn(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: 2, VectorSize: 1024, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gpusim.NewCluster(gpusim.MI100Nodes(512, 8))
	if err != nil {
		t.Fatal(err)
	}
	ids := w.TensorIDs()
	var makespan float64
	run := func() {
		res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		makespan = res.Makespan
	}
	run()
	first := makespan
	hook := afterRun
	afterRun = nil // an audit allocates
	defer func() { afterRun = hook }()
	// Result, its PerDevice, the Context and its two books, the engine: a
	// dozen values. 2048 pairs and 3000 tensors are nowhere in it.
	if avg := testing.AllocsPerRun(3, run); avg > 16 {
		t.Errorf("a repeat run allocates %g times, want the engine's own dozen", avg)
	}
	if makespan != first {
		t.Errorf("repeat run's makespan %g, first run's %g", makespan, first)
	}
	if again := w.TensorIDs(); &again[0] != &ids[0] {
		t.Error("the workload re-made its numbering")
	}
}

// probeScheduler checks, inside Assign, that the Context answers for the
// in-flight pair's operands what the cluster answers, and looks up a third
// tensor through the same call.
type probeScheduler struct {
	t     *testing.T
	other uint64
	calls int
}

func (s *probeScheduler) Name() string        { return "probe" }
func (s *probeScheduler) BeginStage(*Context) {}
func (s *probeScheduler) Assign(p workload.Pair, ctx *Context) int {
	for _, id := range []uint64{p.A.ID, p.B.ID, s.other} {
		if got, want := ctx.HoldersMask(id), ctx.Cluster.HoldersMask(id); !got.Equal(want) {
			s.t.Errorf("Context.HoldersMask(%d) = %v inside Assign, the cluster says %v", id, got.AppendTo(nil), want.AppendTo(nil))
		}
	}
	s.calls++
	return s.calls % ctx.NumGPU
}

// TestContextAnswersInFlightPairFromItsSets: the engine hands both operand
// sets to the scheduler through the Context; they must be the cluster's own,
// for every pair of a run with reuse, and a Context built as a literal — no
// engine, no pair in flight — still answers from the cluster.
func TestContextAnswersInFlightPairFromItsSets(t *testing.T) {
	w := smallWorkload(t, 4, 16)
	c := cluster(t, 3)
	s := &probeScheduler{t: t, other: w.Inputs[0].ID}
	if _, err := Run(context.Background(), w, s, c, Options{}); err != nil {
		t.Fatal(err)
	}
	if s.calls != w.NumPairs() {
		t.Fatalf("%d Assign calls for %d pairs", s.calls, w.NumPairs())
	}
	lit := &Context{Cluster: c, NumGPU: 3}
	out := w.Stages[0].Pairs[0].Out.ID
	if got, want := lit.HoldersMask(out), c.HoldersMask(out); got.Empty() || !got.Equal(want) {
		t.Errorf("literal Context: HoldersMask(%d) = %v, cluster says %v", out, got.AppendTo(nil), want.AppendTo(nil))
	}
}
