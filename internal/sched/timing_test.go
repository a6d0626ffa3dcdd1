package sched

import (
	"context"
	"testing"
	"time"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// spinScheduler places pairs round-robin over the live devices and, when
// asked to place an output it has placed before — a recovery re-placement —
// spins for spin first. It notes the outputs it re-placed.
type spinScheduler struct {
	spin     time.Duration
	next     int
	placed   map[uint64]bool
	replaced []uint64
}

func (s *spinScheduler) Name() string        { return "spin" }
func (s *spinScheduler) BeginStage(*Context) {}
func (s *spinScheduler) Assign(p workload.Pair, ctx *Context) int {
	if s.placed[p.Out.ID] {
		for t0 := time.Now(); time.Since(t0) < s.spin; {
		}
		s.replaced = append(s.replaced, p.Out.ID)
	}
	s.placed[p.Out.ID] = true
	for ctx.Down.Has(s.next % ctx.NumGPU) {
		s.next++
	}
	s.next++
	return (s.next - 1) % ctx.NumGPU
}

// TestAssignTimingCoverage: the sampled Assign timing charges every pair of
// a stage to exactly one sample, for stages of every length up to three
// strides and one; a recovery re-placement is timed on its own whatever its
// place in its stage; and a run that placed a pair reports a positive
// SchedOverhead.
func TestAssignTimingCoverage(t *testing.T) {
	for n := 0; n <= 3*assignEvery+1; n++ {
		covered := make([]int, n+assignEvery) // room for a sample that overruns
		for pi := 0; pi < n; pi++ {
			for j := pi; j < pi+assignWeight(pi, n); j++ {
				covered[j]++
			}
		}
		for j, k := range covered {
			if want := min(1, max(n-j, 0)); k != want {
				t.Errorf("stage of %d pairs: position %d is covered %d times, want %d", n, j, k, want)
			}
		}
	}

	// Device 1 of four is lost at the start of stage 1; round-robin put
	// stage 0's pairs 1, 5, 9, ... there, none of them a sampled one, so
	// only timing each re-placement by itself charges their spins.
	w, err := workload.Generate(workload.Config{
		Seed: 5, Stages: 3, VectorSize: 24, TensorDim: 16, Batch: 1,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.8, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gpusim.NewCluster(gpusim.MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	const spin = time.Millisecond
	s := &spinScheduler{spin: spin, placed: map[uint64]bool{}}
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 0}}}
	res, err := Run(context.Background(), w, s, c, Options{FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	r := len(s.replaced)
	if r == 0 || r != res.Recovery.PairsRescheduled {
		t.Fatalf("the scheduler saw %d re-placements, the run reports %d: the fixture exercises no recovery",
			r, res.Recovery.PairsRescheduled)
	}
	for _, out := range s.replaced {
		for pi, p := range w.Stages[0].Pairs {
			if p.Out.ID == out && assignWeight(pi, len(w.Stages[0].Pairs)) > 0 {
				t.Fatalf("stage 0 pair %d, re-placed, is a sampled pair: the fixture cannot tell the schemes apart", pi)
			}
		}
	}
	if res.SchedOverhead < time.Duration(r)*spin {
		t.Errorf("SchedOverhead %v is under the %d re-placements' spins of %v each", res.SchedOverhead, r, spin)
	}

	for _, n := range []int{1, 2, assignEvery + 1} {
		w, err := workload.Generate(workload.Config{
			Seed: int64(n), Stages: 1, VectorSize: n, TensorDim: 16, Batch: 1,
			Rank: tensor.RankMeson, Dist: workload.Uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), w, &spinScheduler{placed: map[uint64]bool{}}, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if w.NumPairs() > 0 && res.SchedOverhead <= 0 {
			t.Errorf("a run of %d pairs reports SchedOverhead %v", w.NumPairs(), res.SchedOverhead)
		}
	}
}
