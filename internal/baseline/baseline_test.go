package baseline

import (
	"context"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

func mkCluster(t *testing.T, n int) *gpusim.Cluster {
	t.Helper()
	c, err := gpusim.NewCluster(gpusim.MI100(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func d(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 32, Batch: 1}
}

func pair(a, b, out uint64) workload.Pair {
	return workload.Pair{A: d(a), B: d(b), Out: d(out)}
}

func freshCtx(c *gpusim.Cluster) *sched.Context {
	n := c.NumDevices()
	return &sched.Context{
		Cluster: c, NumGPU: n, BalanceNum: 4,
		StageLoad: make([]int, n),
	}
}

func TestGrouteEarliestAvailable(t *testing.T) {
	c := mkCluster(t, 3)
	// Occupy device 0 and 2 with work so device 1 is earliest.
	for _, id := range []uint64{1, 2, 3, 4} {
		c.RegisterHostTensor(d(id))
	}
	if _, err := c.ExecContraction(0, d(1), d(2), d(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContraction(2, d(3), d(4), d(11)); err != nil {
		t.Fatal(err)
	}
	g := NewGroute()
	ctx := freshCtx(c)
	g.BeginStage(ctx)
	if got := g.Assign(pair(1, 2, 12), ctx); got != 1 {
		t.Errorf("Groute chose %d, want idle device 1", got)
	}
	if g.Name() != "Groute" {
		t.Error("name")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	c := mkCluster(t, 3)
	r := NewRoundRobin()
	ctx := freshCtx(c)
	r.BeginStage(ctx)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := r.Assign(pair(1, 2, 3), ctx); got != w {
			t.Fatalf("assignment %d = %d, want %d", i, got, w)
		}
	}
	if r.Name() != "RoundRobin" {
		t.Error("name")
	}
}

func TestLocalityOnlyChasesResidency(t *testing.T) {
	c := mkCluster(t, 3)
	for _, id := range []uint64{1, 2} {
		c.RegisterHostTensor(d(id))
	}
	if err := c.EnsureResident(2, d(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(2, d(2)); err != nil {
		t.Fatal(err)
	}
	l := NewLocalityOnly()
	ctx := freshCtx(c)
	l.BeginStage(ctx)
	if got := l.Assign(pair(1, 2, 10), ctx); got != 2 {
		t.Errorf("LocalityOnly chose %d, want holder 2", got)
	}
	// With nothing resident, falls back to earliest clock.
	if got := l.Assign(pair(8, 9, 11), ctx); got == 2 {
		// device 2 has no advantage and a zero clock like 0 and 1; any of
		// the zero-clock devices is acceptable, but ties break to the
		// first minimum.
		t.Errorf("LocalityOnly tie-break chose %d, want 0", got)
	}
	if l.Name() != "LocalityOnly" {
		t.Error("name")
	}
}

func grouteCfg() workload.Config {
	return workload.Config{
		Seed: 11, Stages: 10, VectorSize: 24, TensorDim: 64, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
	}
}

func TestBaselinesRunEndToEnd(t *testing.T) {
	w, err := workload.Generate(grouteCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := mkCluster(t, 4)
	for _, s := range []sched.Scheduler{NewGroute(), NewRoundRobin(), NewLocalityOnly()} {
		res, err := sched.Run(context.Background(), w, s, c, sched.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.GFLOPS <= 0 || res.Total.Kernels != int64(w.NumPairs()) {
			t.Errorf("%s: degenerate result %+v", s.Name(), res.Total)
		}
	}
}

// Groute balances load: across a stream of identical pairs its device loads
// must stay within one pair of each other.
func TestGrouteLoadBalance(t *testing.T) {
	w, err := workload.Generate(grouteCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := mkCluster(t, 4)
	res, err := sched.Run(context.Background(), w, NewGroute(), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var minK, maxK int64 = 1 << 62, 0
	for _, d := range res.PerDevice {
		if d.Kernels < minK {
			minK = d.Kernels
		}
		if d.Kernels > maxK {
			maxK = d.Kernels
		}
	}
	if maxK-minK > int64(w.NumPairs()/4) {
		t.Errorf("Groute kernel imbalance %d..%d too large", minK, maxK)
	}
}

// LocalityOnly must achieve more reuse hits than Groute on repeated data,
// while (typically) having worse balance — the Fig. 2 trade-off extremes.
func TestLocalityVsGrouteTradeoff(t *testing.T) {
	cfg := grouteCfg()
	cfg.RepeatRate = 0.8
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := mkCluster(t, 4)
	loc, err := sched.Run(context.Background(), w, NewLocalityOnly(), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := sched.Run(context.Background(), w, NewGroute(), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loc.Total.ReuseHits <= gr.Total.ReuseHits {
		t.Errorf("LocalityOnly reuse hits %d should exceed Groute %d",
			loc.Total.ReuseHits, gr.Total.ReuseHits)
	}
}
