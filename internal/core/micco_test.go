package core

import (
	"context"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestBoundsText: the text form the commands' -bounds flag reads, spaces
// and String's parentheses allowed, and the inputs it refuses.
func TestBoundsText(t *testing.T) {
	for in, want := range map[string]Bounds{"0,2,0": {0, 2, 0}, " 1 , 2 , 3 ": {1, 2, 3}, "(4,0,7)": {4, 0, 7}} {
		var b Bounds
		if err := b.UnmarshalText([]byte(in)); err != nil || b != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", in, b, err, want)
		}
		text, err := b.MarshalText()
		var again Bounds
		if err != nil || again.UnmarshalText(text) != nil || again != b {
			t.Errorf("%v does not round-trip through %q", b, text)
		}
	}
	for _, bad := range []string{"", "1,2", "a,b,c", "-1,0,0", "1,2,3,4"} {
		b := Bounds{9, 9, 9}
		if err := b.UnmarshalText([]byte(bad)); err == nil || b != (Bounds{9, 9, 9}) {
			t.Errorf("UnmarshalText(%q) = %v, %v; want an error and the bounds unchanged", bad, b, err)
		}
	}
}

func mkCluster(t *testing.T, n int) *gpusim.Cluster {
	t.Helper()
	c, err := gpusim.NewCluster(gpusim.MI100(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkWorkload(t *testing.T, cfg workload.Config) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func synthCfg() workload.Config {
	// Paper-like sizing: transfer-dominated tensors and a meaningful
	// repeat rate, so data reuse is worth trading balance for.
	return workload.Config{
		Seed: 7, Stages: 12, VectorSize: 32, TensorDim: 384, Batch: 4,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
	}
}

func freshCtx(c *gpusim.Cluster) *sched.Context {
	n := c.NumDevices()
	return &sched.Context{
		Cluster:    c,
		NumGPU:     n,
		BalanceNum: 4,
		StageLoad:  make([]int, n),
	}
}

func d(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 32, Batch: 1}
}

func pair(a, b, out uint64) workload.Pair {
	return workload.Pair{A: d(a), B: d(b), Out: d(out)}
}

func TestPatternClassification(t *testing.T) {
	c := mkCluster(t, 2)
	for _, id := range []uint64{1, 2, 3, 4} {
		c.RegisterHostTensor(d(id))
	}
	// GPU 0 holds 1 and 2; GPU 1 holds 3.
	for _, id := range []uint64{1, 2} {
		if err := c.EnsureResident(0, d(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnsureResident(1, d(3)); err != nil {
		t.Fatal(err)
	}
	ctx := freshCtx(c)
	cases := []struct {
		p    workload.Pair
		want obs.ReusePattern
	}{
		{pair(1, 2, 100), obs.TwoRepeatedSame},
		{pair(1, 3, 101), obs.TwoRepeatedDiff},
		{pair(1, 4, 102), obs.OneRepeated},
		{pair(4, 1, 103), obs.OneRepeated},
		{pair(4, 5, 104), obs.TwoNew},
	}
	for _, cse := range cases {
		if got := sched.ClassifyMasks(ctx.HoldersMask(cse.p.A.ID), ctx.HoldersMask(cse.p.B.ID)); got != cse.want {
			t.Errorf("ClassifyMasks(%d,%d) = %v, want %v", cse.p.A.ID, cse.p.B.ID, got, cse.want)
		}
	}
}

func TestAssignTwoRepeatedSameChoosesHolder(t *testing.T) {
	c := mkCluster(t, 4)
	for _, id := range []uint64{1, 2} {
		c.RegisterHostTensor(d(id))
	}
	for _, id := range []uint64{1, 2} {
		if err := c.EnsureResident(2, d(id)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := freshCtx(c)
	s := NewNaive()
	s.BeginStage(ctx)
	if got := s.Assign(pair(1, 2, 100), ctx); got != 2 {
		t.Errorf("twoRepeatedSame assigned to %d, want holder 2", got)
	}
}

func TestAssignRespectsReuseBound(t *testing.T) {
	c := mkCluster(t, 2)
	for _, id := range []uint64{1, 2} {
		c.RegisterHostTensor(d(id))
		if err := c.EnsureResident(0, d(id)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := freshCtx(c)
	ctx.BalanceNum = 4
	// GPU 0 already at the bound-0 limit (load 4 = bound 0 + balance 4):
	// the data-centric step must reject it; with nothing else resident the
	// pair falls through to step III and lands on the less-loaded GPU 1.
	ctx.StageLoad[0] = 4
	s := NewNaive()
	s.BeginStage(ctx)
	if got := s.Assign(pair(1, 2, 100), ctx); got != 0 {
		// With bound 1 also zero and GPU 0 full, candidates come from
		// step III: GPU 1 only.
		if got != 1 {
			t.Errorf("assigned to %d, want 1", got)
		}
	} else {
		t.Error("bound-exceeding GPU 0 should have been rejected")
	}
	// Raising bound 0 readmits GPU 0.
	s2 := NewFixed(Bounds{2, 0, 0})
	s2.BeginStage(ctx)
	if got := s2.Assign(pair(1, 2, 101), ctx); got != 0 {
		t.Errorf("with bound 2, want reuse GPU 0, got %d", got)
	}
}

func TestAssignOneRepeatedPrefersHolderUnderBound(t *testing.T) {
	c := mkCluster(t, 3)
	c.RegisterHostTensor(d(1))
	if err := c.EnsureResident(1, d(1)); err != nil {
		t.Fatal(err)
	}
	ctx := freshCtx(c)
	s := NewFixed(Bounds{0, 1, 0})
	s.BeginStage(ctx)
	if got := s.Assign(pair(1, 9, 100), ctx); got != 1 {
		t.Errorf("oneRepeated assigned to %d, want holder 1", got)
	}
}

func TestAssignTwoNewBalances(t *testing.T) {
	c := mkCluster(t, 3)
	// Give GPUs 0 and 1 distinct queue depths by loading tensors onto
	// them; GPU 2 stays idle and must win the computation-centric policy.
	for _, id := range []uint64{1, 2} {
		c.RegisterHostTensor(d(id))
	}
	if err := c.EnsureResident(0, d(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(1, d(2)); err != nil {
		t.Fatal(err)
	}
	ctx := freshCtx(c)
	ctx.StageLoad = []int{4, 0, 2} // GPU 0 also at the bound limit
	s := NewNaive()
	s.BeginStage(ctx)
	// StageLoad[0] = 4 equals the limit, so GPU 0 is out; among {1, 2}
	// GPU 2 has the earliest queue.
	if got := s.Assign(pair(50, 51, 100), ctx); got != 2 {
		t.Errorf("twoNew assigned to %d, want min-queue GPU 2", got)
	}
}

func TestAssignFallbackWhenAllOverBound(t *testing.T) {
	c := mkCluster(t, 2)
	ctx := freshCtx(c)
	ctx.BalanceNum = 0 // pathological: no GPU is ever "available"
	ctx.StageLoad = []int{3, 1}
	s := NewNaive()
	s.BeginStage(ctx)
	if got := s.Assign(pair(60, 61, 100), ctx); got != 1 {
		t.Errorf("fallback assigned to %d, want least-loaded GPU 1", got)
	}
}

func TestAssignEvictionSensitivePolicy(t *testing.T) {
	cfg := gpusim.MI100(2)
	cfg.MemoryBytes = 3 * d(0).Bytes() // three small tensors per GPU
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill GPU 0 with two resident tensors; GPU 1 with one.
	for _, id := range []uint64{1, 2, 3} {
		c.RegisterHostTensor(d(id))
	}
	for _, id := range []uint64{1, 2} {
		if err := c.EnsureResident(0, d(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnsureResident(1, d(3)); err != nil {
		t.Fatal(err)
	}
	ctx := freshCtx(c)
	s := NewNaive()
	s.BeginStage(ctx)
	// A twoNew pair needs 3 new tensors on GPU 0 (over its pool) but only
	// 3 on GPU 1 where 1 slot is used -> also over. Both oversubscribe, so
	// the memory-eviction-sensitive policy picks the most free memory:
	// GPU 1 (1 resident) over GPU 0 (2 resident).
	if got := s.Assign(pair(70, 71, 100), ctx); got != 1 {
		t.Errorf("eviction-sensitive policy chose %d, want 1", got)
	}
}

// TestAssignStepIIIOversubscriptionVerdict: in step III the pair's need
// bytes decide Algorithm 2's oversubscription verdict, on four-tensor pools
// where it picks between the shorter queue (computation-centric) and the
// most free memory (memory-eviction). A self-pair adds its operand once;
// a device already holding an operand is lifted to its own projection,
// every A holder and every B-only holder, whatever the IDs next to it hold.
// Counting B twice, or leaving a holder at MemUsed, tips the verdict and
// the device.
func TestAssignStepIIIOversubscriptionVerdict(t *testing.T) {
	type load struct {
		id  uint64
		dev int
	}
	// GPU 0 holds tensor 10 but is past step III's limit; GPU 1 holds 10
	// and 11 and has the shorter queue; GPU 2 holds one tensor, 13 and 14
	// having been copied after GPU 1's and discarded.
	holders := []load{{10, 0}, {10, 1}, {11, 1}, {12, 2}, {13, 2}, {14, 2}}
	cases := []struct {
		name      string
		bounds    Bounds
		loads     []load
		balance   int
		stageLoad []int
		p         workload.Pair
		want      int
	}{
		{"self-pair counts its operand once", Bounds{}, []load{{1, 0}, {2, 0}, {3, 1}, {13, 1}, {14, 1}}, 4, []int{0, 0}, pair(80, 80, 100), 0},
		{"an A holder is lifted", Bounds{1, 0, 1}, holders, 1, []int{2, 1, 1}, pair(10, 50, 100), 1},
		{"a B-only holder is lifted", Bounds{1, 0, 1}, holders, 1, []int{2, 1, 1}, pair(50, 10, 100), 1},
	}
	for _, tc := range cases {
		cfg := gpusim.MI100(len(tc.stageLoad))
		cfg.MemoryBytes = 4 * d(0).Bytes()
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range tc.loads {
			c.RegisterHostTensor(d(l.id))
			if err := c.EnsureResident(l.dev, d(l.id)); err != nil {
				t.Fatal(err)
			}
		}
		c.DiscardDeviceCopies(13)
		c.DiscardDeviceCopies(14)
		ctx := freshCtx(c)
		ctx.BalanceNum, ctx.StageLoad = tc.balance, tc.stageLoad
		s := NewFixed(tc.bounds)
		s.BeginStage(ctx)
		if got := s.Assign(tc.p, ctx); got != tc.want {
			t.Errorf("%s: placed on %d, want %d (no oversubscription, shorter queue)", tc.name, got, tc.want)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewNaive().Name() != "MICCO-naive" {
		t.Error("naive name")
	}
	if NewOptimal(nil).Name() != "MICCO-optimal" {
		t.Error("optimal name")
	}
	if NewFixed(Bounds{1, 2, 0}).Name() != "MICCO(1,2,0)" {
		t.Errorf("fixed name = %q", NewFixed(Bounds{1, 2, 0}).Name())
	}
	if (Bounds{0, 2, 1}).String() != "(0,2,1)" {
		t.Error("bounds string")
	}
}

type constPredictor struct{ b Bounds }

func (p constPredictor) PredictBounds(workload.Features, int) Bounds { return p.b }

func TestOptimalUsesPredictor(t *testing.T) {
	c := mkCluster(t, 2)
	ctx := freshCtx(c)
	s := NewOptimal(constPredictor{Bounds{0, 2, 1}})
	s.BeginStage(ctx)
	if s.bounds != (Bounds{0, 2, 1}) {
		t.Errorf("active bounds = %v", s.bounds)
	}
}

// End-to-end: with repeated data, MICCO must beat Groute; MICCO with tuned
// bounds must be at least as good as naive; and all schedulers must produce
// a valid run.
func TestMICCOBeatsGrouteOnReuseHeavyWorkload(t *testing.T) {
	w := mkWorkload(t, synthCfg())
	c := mkCluster(t, 4)

	groute, err := sched.Run(context.Background(), w, grouteForTest{}, c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := sched.Run(context.Background(), w, NewNaive(), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := sched.Run(context.Background(), w, NewFixed(Bounds{2, 2, 2}), c, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.GFLOPS <= groute.GFLOPS {
		t.Errorf("MICCO-naive (%.1f GF) should beat Groute (%.1f GF)",
			naive.GFLOPS, groute.GFLOPS)
	}
	if naive.Total.ReuseHits <= groute.Total.ReuseHits {
		t.Errorf("MICCO reuse hits %d should exceed Groute %d",
			naive.Total.ReuseHits, groute.Total.ReuseHits)
	}
	if tuned.GFLOPS < naive.GFLOPS*0.9 {
		t.Errorf("tuned bounds (%.1f GF) regressed badly vs naive (%.1f GF)",
			tuned.GFLOPS, naive.GFLOPS)
	}
}

// grouteForTest avoids an import cycle with the baseline package: the
// earliest-available-device policy restated locally.
type grouteForTest struct{}

func (grouteForTest) Name() string              { return "Groute" }
func (grouteForTest) BeginStage(*sched.Context) {}
func (grouteForTest) Assign(_ workload.Pair, ctx *sched.Context) int {
	best := 0
	for i := 1; i < ctx.NumGPU; i++ {
		if ctx.Cluster.Device(i).Clock() < ctx.Cluster.Device(best).Clock() {
			best = i
		}
	}
	return best
}

// Determinism: repeated runs of the same scheduler on the same workload
// produce identical results (the random tie-break is seeded).
func TestMICCODeterminism(t *testing.T) {
	w := mkWorkload(t, synthCfg())
	c := mkCluster(t, 4)
	r1, err := sched.Run(context.Background(), w, NewNaive(), c, sched.Options{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sched.Run(context.Background(), w, NewNaive(), c, sched.Options{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.GFLOPS != r2.GFLOPS || r1.Makespan != r2.Makespan {
		t.Error("MICCO runs are not deterministic")
	}
	for si := range r1.Assignments {
		for pi := range r1.Assignments[si] {
			if r1.Assignments[si][pi] != r2.Assignments[si][pi] {
				t.Fatalf("assignment differs at stage %d pair %d", si, pi)
			}
		}
	}
}

// Load-balance invariant: per-stage tensor loads never exceed the step-III
// limit bound[2] + balanceNum... except via the defensive fallback, which
// only fires with pathological bounds. Verified over a realistic run.
func TestMICCOLoadBoundInvariant(t *testing.T) {
	w := mkWorkload(t, synthCfg())
	n := 4
	c := mkCluster(t, n)
	b := Bounds{1, 2, 1}
	res, err := sched.Run(context.Background(), w, NewFixed(b), c, sched.Options{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	for si, st := range w.Stages {
		balance := (st.NumTensors() + n - 1) / n
		load := make([]int, n)
		maxBound := b[0]
		for _, bi := range b {
			if bi > maxBound {
				maxBound = bi
			}
		}
		for pi := range st.Pairs {
			dev := res.Assignments[si][pi]
			load[dev] += 2
		}
		for dev, l := range load {
			// A pair adds 2 tensors after the check load < limit, so the
			// worst case is limit-1+2 = limit+1 tensors.
			if l > balance+maxBound+1 {
				t.Errorf("stage %d device %d load %d exceeds limit %d",
					si, dev, l, balance+maxBound+1)
			}
		}
	}
}

// TestPatternCountsAndEvictionPolicyStats reads what MICCO saw off the
// decision records of a watched run: every pair's reuse pattern, and which
// placements the memory-eviction-sensitive policy decided — none with
// ample pools, some once they are oversubscribed.
func TestPatternCountsAndEvictionPolicyStats(t *testing.T) {
	w := mkWorkload(t, synthCfg())
	watch := func(c *gpusim.Cluster) (patterns [obs.NumReusePatterns]int, evictionPolicy int) {
		t.Helper()
		reg := obs.New()
		if _, err := sched.Run(context.Background(), w, NewNaive(), c, sched.Options{Obs: reg}); err != nil {
			t.Fatal(err)
		}
		for _, r := range reg.Decisions() {
			patterns[r.Pattern]++
			if r.Policy == obs.PolicyMemoryEviction {
				evictionPolicy++
			}
		}
		return patterns, evictionPolicy
	}
	counts, evictions := watch(mkCluster(t, 4))
	if total := counts[0] + counts[1] + counts[2] + counts[3]; total != w.NumPairs() {
		t.Errorf("pattern counts sum %d, want %d", total, w.NumPairs())
	}
	if counts[obs.TwoNew] == 0 {
		t.Error("a fresh run must see twoNew pairs")
	}
	if counts[obs.TwoRepeatedSame]+counts[obs.OneRepeated]+counts[obs.TwoRepeatedDiff] == 0 {
		t.Error("a 60%-repeat workload must see repeated patterns")
	}
	// With 32 GiB pools nothing oversubscribes.
	if evictions != 0 {
		t.Errorf("eviction policy used %d times without pressure", evictions)
	}

	// Under oversubscription the eviction-sensitive policy must engage.
	cfg := gpusim.MI100(4)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 8
	small, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, evictions := watch(small); evictions == 0 {
		t.Error("oversubscribed run never triggered the eviction-sensitive policy")
	}
}

// TestAssignFillsDecisionRecord checks the scheduler-side half of the
// decision protocol: bound attribution, policy, and candidate scores land
// in the record the engine hands over through Context.Decision.
func TestAssignFillsDecisionRecord(t *testing.T) {
	c := mkCluster(t, 2)
	for _, id := range []uint64{1, 2} {
		c.RegisterHostTensor(d(id))
		if err := c.EnsureResident(0, d(id)); err != nil {
			t.Fatal(err)
		}
	}
	s := NewFixed(Bounds{3, 3, 3})
	ctx := freshCtx(c)
	s.BeginStage(ctx)

	rec := &obs.DecisionRecord{BoundIndex: -1}
	ctx.Decision = rec
	dev := s.Assign(pair(1, 2, 100), ctx)
	if dev != 0 {
		t.Fatalf("both-holder pair assigned to %d, want 0", dev)
	}
	if rec.BoundIndex != 0 || rec.Bound != 3 {
		t.Errorf("bound attribution = (%d, %d), want (0, 3)", rec.BoundIndex, rec.Bound)
	}
	if rec.Policy != obs.PolicyComputeCentric {
		t.Errorf("policy = %q, want compute-centric", rec.Policy)
	}
	if len(rec.Candidates) != 1 || rec.Candidates[0].Device != 0 {
		t.Errorf("candidates = %v, want device 0 only", rec.Candidates)
	}

	// A pair with no resident operands gates on the step-III bound and
	// considers every GPU.
	rec = &obs.DecisionRecord{BoundIndex: -1}
	ctx.Decision = rec
	s.Assign(pair(8, 9, 101), ctx)
	if rec.BoundIndex != 2 {
		t.Errorf("twoNew bound index = %d, want 2", rec.BoundIndex)
	}
	if len(rec.Candidates) != 2 {
		t.Errorf("twoNew candidates = %v, want both GPUs", rec.Candidates)
	}
}

// TestAssignAddsNoAllocationsWithoutObservability guards the acceptance
// bar that a disabled registry costs nothing on the placement hot path:
// with Context.Decision nil, Assign must not allocate at all.
func TestAssignAddsNoAllocationsWithoutObservability(t *testing.T) {
	c := mkCluster(t, 1)
	s := NewNaive()
	ctx := freshCtx(c)
	s.BeginStage(ctx)
	p := pair(50, 51, 52)
	s.Assign(p, ctx) // warm the candidate queue's capacity
	if allocs := testing.AllocsPerRun(200, func() { s.Assign(p, ctx) }); allocs != 0 {
		t.Errorf("Assign allocates %.1f times per placement with observability off, want 0", allocs)
	}
}

// BenchmarkAssignObservabilityOff measures the placement hot path with the
// decision channel disabled (run with -benchmem to watch allocs/op).
func BenchmarkAssignObservabilityOff(b *testing.B) {
	c, err := gpusim.NewCluster(gpusim.MI100(1))
	if err != nil {
		b.Fatal(err)
	}
	s := NewNaive()
	ctx := freshCtx(c)
	s.BeginStage(ctx)
	p := pair(50, 51, 52)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Assign(p, ctx)
	}
}
