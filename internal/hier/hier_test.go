package hier_test

import (
	"context"
	"reflect"
	"testing"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

func testWorkload(t testing.TB, seed int64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: seed, Stages: 4, VectorSize: 24, TensorDim: 8, Batch: 1,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
		ChainRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newCluster(t testing.TB, cfg gpusim.Config) *gpusim.Cluster {
	t.Helper()
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHierRunsMultiNode drives the two-level scheduler end to end on a
// 4x8-device topology and checks the run is sane and deterministic.
func TestHierRunsMultiNode(t *testing.T) {
	w := testWorkload(t, 3)
	c := newCluster(t, gpusim.MI100Nodes(4, 8))
	s := hier.New(16, core.Bounds{0, 2, 0})
	res1, err := sched.Run(context.Background(), w, s, c, sched.Options{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	if res1.GFLOPS <= 0 {
		t.Fatalf("degenerate run: %+v", res1)
	}
	res2, err := sched.Run(context.Background(), w, hier.New(16, core.Bounds{0, 2, 0}), c,
		sched.Options{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Assignments, res2.Assignments) {
		t.Error("two identically-configured runs diverge; the scheduler is not deterministic")
	}
}

// TestHierSingleNodeDegenerates checks the scheduler works unchanged on a
// plain single-node cluster (level 1 collapses to node 0).
func TestHierSingleNodeDegenerates(t *testing.T) {
	w := testWorkload(t, 5)
	c := newCluster(t, gpusim.MI100(4))
	res, err := sched.Run(context.Background(), w, hier.New(16, core.Bounds{0, 2, 0}), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

// assignCtx builds a mid-stage scheduler context over c without the engine.
func assignCtx(c *gpusim.Cluster) *sched.Context {
	n := c.NumDevices()
	return &sched.Context{
		Cluster:    c,
		NumGPU:     n,
		BalanceNum: 4,
		StageLoad:  make([]int, n),
		Down:       c.FailedMask(),
	}
}

func pairOf(a, b, out uint64) workload.Pair {
	d := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
	}
	return workload.Pair{A: d(a), B: d(b), Out: d(out)}
}

// TestHierPrefersOperandNode stages both operands on node 2 of a 4-node
// topology and checks the placement lands inside that node: the inter-node
// placer must shard toward residency before balance kicks in.
func TestHierPrefersOperandNode(t *testing.T) {
	c := newCluster(t, gpusim.MI100Nodes(4, 4))
	p := pairOf(1, 2, 3)
	c.RegisterHostTensor(p.A)
	c.RegisterHostTensor(p.B)
	if err := c.EnsureResident(9, p.A); err != nil { // node 2 spans devices 8-11
		t.Fatal(err)
	}
	if err := c.EnsureResident(10, p.B); err != nil {
		t.Fatal(err)
	}
	ctx := assignCtx(c)
	s := hier.New(16, core.Bounds{0, 2, 0})
	s.BeginStage(ctx)
	dev := s.Assign(p, ctx)
	if dev < 8 || dev > 11 {
		t.Errorf("Assign placed pair on device %d; want a device of node 2 (8-11)", dev)
	}
	// Same-device residency must win over same-node: co-locate both
	// operands on device 9 and the choice must be exactly 9.
	if err := c.EnsureResident(9, p.B); err != nil {
		t.Fatal(err)
	}
	if dev := s.Assign(p, ctx); dev != 9 {
		t.Errorf("Assign placed pair on device %d; want 9 (holds both operands)", dev)
	}
}

// TestHierAvoidsDownNode fails every device of the operands' node and
// checks placements fall back to live devices elsewhere.
func TestHierAvoidsDownNode(t *testing.T) {
	c := newCluster(t, gpusim.MI100Nodes(2, 4))
	p := pairOf(1, 2, 3)
	c.RegisterHostTensor(p.A)
	c.RegisterHostTensor(p.B)
	if err := c.EnsureResident(5, p.A); err != nil { // node 1 spans devices 4-7
		t.Fatal(err)
	}
	for dev := 4; dev < 8; dev++ {
		if err := c.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	ctx := assignCtx(c)
	s := hier.New(16, core.Bounds{0, 2, 0})
	s.BeginStage(ctx)
	for i := 0; i < 8; i++ {
		if dev := s.Assign(p, ctx); dev >= 4 {
			t.Fatalf("Assign %d chose down device %d", i, dev)
		}
	}
}

// TestHierBalancesAcrossNodes checks the node reuse bound is a bound, not
// a sink: with every operand resident on node 0, repeated placements must
// eventually spill to the other nodes once node 0 exceeds its balanced
// share plus the bound.
func TestHierBalancesAcrossNodes(t *testing.T) {
	c := newCluster(t, gpusim.MI100Nodes(4, 4))
	p := pairOf(1, 2, 3)
	c.RegisterHostTensor(p.A)
	c.RegisterHostTensor(p.B)
	if err := c.EnsureResident(0, p.A); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(0, p.B); err != nil {
		t.Fatal(err)
	}
	ctx := assignCtx(c)
	nodeBound := 2
	s := hier.New(nodeBound, core.Bounds{8, 8, 8})
	s.BeginStage(ctx)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		dev := s.Assign(p, ctx)
		ctx.StageLoad[dev] += 2 // mirror the engine's load accounting
		seen[dev/4] = true
	}
	if len(seen) < 2 {
		t.Errorf("64 placements all landed on nodes %v; the node bound never spilled load", seen)
	}
}

// TestHierAssignZeroAllocs is the hot-path alloc guard for the two-level
// scheduler: against warm multi-node residency with observability off,
// Assign must not allocate.
func TestHierAssignZeroAllocs(t *testing.T) {
	w := testWorkload(t, 7)
	c := newCluster(t, gpusim.MI100Nodes(4, 8))
	s := hier.New(16, core.Bounds{0, 2, 0})
	if _, err := sched.Run(context.Background(), w, s, c, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx := assignCtx(c)
	var pairs []workload.Pair
	for si := range w.Stages {
		pairs = append(pairs, w.Stages[si].Pairs...)
	}
	s.BeginStage(ctx)
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		s.Assign(pairs[i%len(pairs)], ctx)
		i++
	})
	if avg != 0 {
		t.Errorf("%g allocs per Assign with obs off, want 0", avg)
	}
}
