// Scheduling-overhead benchmarks: the per-pair placement hot path in
// isolation (BenchmarkSchedulerAssign) and the engine's schedule+simulate
// phases end to end on a real correlator workload
// (BenchmarkRunScheduleOnly). `make bench` records them as BENCH_sched.json
// next to the pre-change baseline; benchsmoke runs them once per `make
// check` so placement-path regressions fail fast in CI.
package sched_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/obs"
	"micco/internal/redstar"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// benchSchedulers is the fixed roster the overhead suite measures: MICCO
// with the paper's reference bounds, the two-level node/device scheduler,
// plus the three comparison baselines.
func benchSchedulers() []sched.Scheduler {
	return []sched.Scheduler{
		core.NewFixed(core.Bounds{0, 2, 0}),
		hier.New(16, core.Bounds{0, 2, 0}),
		baseline.NewGroute(),
		baseline.NewRoundRobin(),
		baseline.NewLocalityOnly(),
	}
}

// f0d4Workload builds the bundled f0d4 correlator workload once per
// process (1026 pairs over 2 stages at 16 time slices, the repo's largest
// deck — the scale of the paper's Table VI rows).
var (
	f0d4Once sync.Once
	f0d4W    *workload.Workload
	f0d4Err  error
)

func f0d4Workload(b testing.TB) *workload.Workload {
	b.Helper()
	f0d4Once.Do(func() {
		build, err := redstar.F0D4().BuildPlan()
		if err != nil {
			f0d4Err = err
			return
		}
		f0d4W = build.Workload
	})
	if f0d4Err != nil {
		b.Fatal(f0d4Err)
	}
	return f0d4W
}

// assignFixture is a cluster warmed with one full engine run (so residency
// reflects a realistic mid-run state with all four reuse patterns live)
// plus a mid-stage scheduler context and the flattened pair stream.
type assignFixture struct {
	ctx   *sched.Context
	pairs []workload.Pair
}

func newAssignFixture(b testing.TB, s sched.Scheduler) *assignFixture {
	return newAssignFixtureOn(b, s, gpusim.MI100(8))
}

func newAssignFixtureOn(b testing.TB, s sched.Scheduler, cfg gpusim.Config) *assignFixture {
	b.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 7, Stages: 6, VectorSize: 64, TensorDim: 128, Batch: 4,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm run leaves tensors resident across the devices; the fixture then
	// re-asks the scheduler about every pair against that settled state.
	if _, err := sched.Run(context.Background(), w, s, c, sched.Options{}); err != nil {
		b.Fatal(err)
	}
	n := c.NumDevices()
	fx := &assignFixture{ctx: sched.NewContext(c)}
	fx.ctx.BalanceNum = (w.Stages[0].NumTensors() + n - 1) / n
	for si := range w.Stages {
		fx.pairs = append(fx.pairs, w.Stages[si].Pairs...)
	}
	s.BeginStage(fx.ctx)
	return fx
}

// coldFixture is the placement loop as a cold stage presents it: every pair
// is twoNew (operands resident nowhere), so Algorithm 1 falls through to
// step III, whose candidate set is every device still under the stage's
// balance point, and Algorithm 2 breaks the resulting tie — thousands of
// devices on one barrier clock at stage start — with the scheduler's rng.
// After each decision the fixture does the engine's bookkeeping for it:
// two tensor slots of load on the chosen device and simulated time on its
// queue. BalanceNum is 2, one pair per device per stage under a zero reuse
// bound; when the stage is full the cluster barriers and loads reset. The
// warm fixture above measures none of this: its pairs all find holders and
// stop at steps I/II.
type coldFixture struct {
	c        *gpusim.Cluster
	ctx      *sched.Context
	pair     workload.Pair
	inStage  int
	perStage int
}

func newColdFixture(b testing.TB, s sched.Scheduler, cfg gpusim.Config) *coldFixture {
	b.Helper()
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	desc := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 128, Batch: 4}
	}
	fx := &coldFixture{
		c:        c,
		ctx:      sched.NewContext(c),
		pair:     workload.Pair{A: desc(1), B: desc(2), Out: desc(3)},
		perStage: c.NumDevices(),
	}
	fx.ctx.BalanceNum = 2
	s.BeginStage(fx.ctx)
	return fx
}

// place is one op: the scheduler's decision plus the bookkeeping that makes
// the next decision see a moved cluster.
func (fx *coldFixture) place(b testing.TB, s sched.Scheduler) {
	dev := s.Assign(fx.pair, fx.ctx)
	fx.ctx.AddLoad(dev, 2)
	if err := fx.c.ChargeExternalTransfer(dev, 1e-3); err != nil {
		b.Fatal(err)
	}
	if fx.inStage++; fx.inStage == fx.perStage {
		fx.inStage = 0
		fx.c.Barrier()
		fx.ctx.ResetLoad()
	}
}

// BenchmarkSchedulerAssign measures one placement decision per op for each
// scheduler against warm residency, observability off (sub-benchmark
// "obs" repeats it with a live DecisionRecord). With obs off every
// scheduler must report 0 allocs/op — the engine's placement hot path is
// allocation-free end to end.
func BenchmarkSchedulerAssign(b *testing.B) {
	for _, s := range benchSchedulers() {
		s := s
		fx := newAssignFixture(b, s)
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.ctx.Decision = nil
				s.Assign(fx.pairs[i%len(fx.pairs)], fx.ctx)
			}
		})
		b.Run(s.Name()+"/obs", func(b *testing.B) {
			reg := obs.New()
			fx.ctx.Obs = reg
			defer func() { fx.ctx.Obs = nil }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := obs.DecisionRecord{BoundIndex: -1}
				fx.ctx.Decision = &rec
				s.Assign(fx.pairs[i%len(fx.pairs)], fx.ctx)
			}
		})
	}
}

// TestAssignZeroAllocsAllSchedulers is the alloc guard behind the
// benchmark's 0 allocs/op claim: with observability off, no scheduler may
// allocate on the placement path against warm multi-GPU residency. Unlike
// the benchmark, this fails `go test` directly.
func TestAssignZeroAllocsAllSchedulers(t *testing.T) {
	for _, s := range benchSchedulers() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			fx := newAssignFixture(t, s)
			fx.ctx.Decision = nil
			i := 0
			avg := testing.AllocsPerRun(2000, func() {
				s.Assign(fx.pairs[i%len(fx.pairs)], fx.ctx)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: %g allocs per Assign with obs off, want 0", s.Name(), avg)
			}
		})
	}
	// The cold path at scale: step III through the availability index,
	// with its per-placement refreshes and a per-stage rebuild inside the
	// measured window (6000 placements cross a 4096-device stage boundary).
	t.Run("MICCO/devs=4096/cold", func(t *testing.T) {
		s := core.NewFixed(core.Bounds{0, 2, 0})
		fx := newColdFixture(t, s, gpusim.MI100Nodes(64, 64))
		avg := testing.AllocsPerRun(6000, func() { fx.place(t, s) })
		if avg != 0 {
			t.Errorf("%g allocs per cold placement at 4096 devices, want 0", avg)
		}
	})
}

// TestObsOnRunAllocsPerPair pins the observed engine's allocation budget:
// a full obs-on run over the f0d4 deck (fresh registry per run, decision
// records, pattern counters, sim-event instruments, spans, snapshot) must
// average at most a quarter of an allocation per pair. The scratch decision
// record, the registry's candidate arena and ReserveDecisions pre-sizing
// hold the per-pair cost at zero; what is left is the per-run fixed cost
// (instrument registration, spans, snapshot): 216 allocations, recorded,
// over the deck's 1026 pairs.
func TestObsOnRunAllocsPerPair(t *testing.T) {
	w := f0d4Workload(t)
	c, err := gpusim.NewCluster(gpusim.MI100(8))
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewFixed(core.Bounds{0, 2, 0})
	avg := testing.AllocsPerRun(3, func() {
		if _, err := sched.Run(context.Background(), w, s, c, sched.Options{Obs: obs.New()}); err != nil {
			t.Fatal(err)
		}
	})
	if perPair := avg / float64(w.NumPairs()); perPair > 0.25 {
		t.Errorf("obs-on run: %.3f allocs/pair (%.0f per run), want <= 0.25", perPair, avg)
	}
}

// BenchmarkNumericPipeline measures a numeric run end to end — placement,
// then each stage's dependency levels as batches on the worker pool
// — on a chained operand-sharing deck of dim-24 tensors, small enough for
// the pool's per-batch hand-off to show, at Parallelism 1 (GOMAXPROCS
// wide), 2 (the engine plus one parked worker) and 8. Every
// iteration's fingerprint is checked against the first run's, so the
// smoke run in `make check` doubles as a correctness probe. Recorded into
// BENCH_sched.json by `make bench`.
func BenchmarkNumericPipeline(b *testing.B) {
	w, err := workload.Generate(workload.Config{
		Seed: 29, Stages: 4, VectorSize: 8, TensorDim: 24, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(pool int) float64 {
		c, err := gpusim.NewCluster(gpusim.MI100(4))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sched.Run(context.Background(), w, core.NewFixed(core.Bounds{0, 2, 0}), c,
			sched.Options{Numeric: true, NumericSeed: 17, Parallelism: pool})
		if err != nil {
			b.Fatal(err)
		}
		return res.NumericFingerprint
	}
	want := run(1)
	if want == 0 {
		b.Fatal("reference run produced a zero fingerprint")
	}
	for _, pool := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("fused/exact/pool=%d", pool), func(b *testing.B) {
			pairs := float64(w.NumPairs())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := run(pool); got != want {
					b.Fatalf("pool %d: fingerprint %x != reference %x", pool, got, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*pairs), "ns/pair")
		})
	}
}

// BenchmarkSchedulerAssignLarge measures one placement decision at
// simulated-cluster scales far past the old 64-device ceiling (256, 1024
// and 4096 devices, 64 per node), for the flat MICCO scheduler and the
// two-level hier scheduler. The interesting read is how ns/op grows with
// device count: hier's placement is O(holder nodes + log nodes + nodeSize)
// per pair on top of reading the two holder sets, so at a fixed 64 devices
// per node its per-decision cost must stay near flat as nodes are added.
// These warm rows never reach step III — every pair finds holders —
// so for MICCO they price steps I/II only; the "/cold" rows run the
// coldFixture loop, where every decision is a step-III pick with an rng
// tie-break, and are the ones that show what a placement costs as the
// cluster grows. Recorded into BENCH_sched.json by `make bench`.
func BenchmarkSchedulerAssignLarge(b *testing.B) {
	for _, devs := range []int{256, 1024, 4096} {
		cfg := gpusim.MI100Nodes(devs/64, 64)
		cases := []struct {
			name string
			s    sched.Scheduler
		}{
			{"MICCO", core.NewFixed(core.Bounds{0, 2, 0})},
			{"Hier", hier.New(16, core.Bounds{0, 2, 0})},
		}
		for _, tc := range cases {
			fx := newAssignFixtureOn(b, tc.s, cfg)
			b.Run(fmt.Sprintf("%s/devs=%d", tc.name, devs), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.ctx.Decision = nil
					tc.s.Assign(fx.pairs[i%len(fx.pairs)], fx.ctx)
				}
			})
		}
		b.Run(fmt.Sprintf("MICCO/devs=%d/cold", devs), func(b *testing.B) {
			s := core.NewFixed(core.Bounds{0, 2, 0})
			fx := newColdFixture(b, s, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.place(b, s)
			}
		})
	}
}

// wideWorkload is the sched_scale ladder job's synthetic workload: 4 stages
// of 4096 pairs, for its 512x8 cluster.
func wideWorkload(tb testing.TB) *workload.Workload {
	tb.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: 4, VectorSize: 4096, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkRunScheduleOnly measures the engine's schedule+simulate phases
// (no numeric validation), reporting ns/pair and allocs/pair so the
// per-placement constant factor is directly comparable across changes. The
// f0d4 rows run the full correlator on 8 devices with observability off and
// on, and the Groute baseline for scale. The devs=4096 rows are one half
// each of a sched_scale ladder job — its synthetic workload on its 512x8
// cluster — where B/op is what the simulator allocates per run on a cluster
// it has run on before, and is gated in benchguard; MICCO's is also run
// watched, where B/op is what one registry's decision records cost at that
// width (capped candidate lists hold it under 32 MB, gated).
func BenchmarkRunScheduleOnly(b *testing.B) {
	f0d4, small := f0d4Workload(b), gpusim.MI100(8)
	wide := wideWorkload(b)
	micco := func() sched.Scheduler { return core.NewFixed(core.Bounds{0, 2, 0}) }
	cases := []struct {
		name  string
		w     *workload.Workload
		cfg   gpusim.Config
		mk    func() sched.Scheduler
		obsOn bool
	}{
		{"MICCO/obs=off", f0d4, small, micco, false},
		{"MICCO/obs=on", f0d4, small, micco, true},
		{"Groute/obs=off", f0d4, small, func() sched.Scheduler { return baseline.NewGroute() }, false},
		{"MICCO/devs=4096", wide, gpusim.MI100Nodes(512, 8), micco, false},
		{"MICCO/devs=4096/obs=on", wide, gpusim.MI100Nodes(512, 8), micco, true},
		{"Hier/devs=4096", wide, gpusim.MI100Nodes(512, 8),
			func() sched.Scheduler { return hier.New(16, core.Bounds{0, 2, 0}) }, false},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			c, err := gpusim.NewCluster(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := tc.mk()
			// One untimed run sizes the cluster's pools: the rows price a
			// run on a cluster that has run before, as every ladder job is.
			if _, err := sched.Run(context.Background(), tc.w, s, c, sched.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs0 := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := sched.Options{}
				if tc.obsOn {
					opts.Obs = obs.New()
				}
				if _, err := sched.Run(context.Background(), tc.w, s, c, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			pairs := float64(b.N * tc.w.NumPairs())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
			b.ReportMetric(float64(ms.Mallocs-mallocs0)/pairs, "allocs/pair")
		})
	}
}

// BenchmarkObservedRun prices watching a run on the ladder's observed_run
// shape — 10 stages x 1024 pairs of dim-384 batch-8 tensors on eight
// devices holding a sixteenth of the unique bytes, dead inputs kept, so
// eviction and write-back run beside reuse hits (45k simulator events per
// job): unwatched, with a fresh registry, and with the registry plus the
// simulator trace, which is the ladder's job. ns/pair and B/op of the
// three rows are the observer's whole cost; benchguard gates obs+trace's
// time and bytes and off's bytes. The fourth row, interleaved, runs the
// three jobs round-robin in one process — one round per op, each job on
// its own warm cluster — and reports the ratios of their p10 job times,
// obs/off-p10 and obs+trace/off-p10: measured side by side, machine drift
// between separate rows cannot move them, and benchguard bounds them.
func BenchmarkObservedRun(b *testing.B) {
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: 10, VectorSize: 1024, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpusim.MI100(8)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 16
	// newJob returns one observed_run job on a cluster of its own, run once
	// untimed: every ladder job runs on a cluster that has run before.
	newJob := func(watch, trace bool) func() {
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		job := func() {
			// A fresh scheduler per job, as the ladder's: its tie-break
			// rng restarts, so every job replays the same 45 510 events.
			s := core.NewFixed(core.Bounds{0, 2, 0})
			var opts sched.Options
			if watch {
				opts.Obs = obs.New()
			}
			if trace {
				c.StartTrace()
			}
			if _, err := sched.Run(context.Background(), w, s, c, opts); err != nil {
				b.Fatal(err)
			}
			c.StopTrace()
		}
		job()
		return job
	}
	modes := []struct {
		name         string
		watch, trace bool
	}{{"off", false, false}, {"obs", true, false}, {"obs+trace", true, true}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			job := newJob(m.watch, m.trace)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.NumPairs()), "ns/pair")
		})
	}
	b.Run("interleaved", func(b *testing.B) {
		jobs := make([]func(), len(modes))
		times := make([][]float64, len(modes))
		for k, m := range modes {
			jobs[k] = newJob(m.watch, m.trace)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, job := range jobs {
				t0 := time.Now()
				job()
				times[k] = append(times[k], float64(time.Since(t0)))
			}
		}
		b.StopTimer()
		off := p10(times[0])
		b.ReportMetric(p10(times[1])/off, "obs/off-p10")
		b.ReportMetric(p10(times[2])/off, "obs+trace/off-p10")
	})
}

// p10 is the tenth percentile of xs: the value a tenth of the way up its
// sorted order, rounding down.
func p10(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/10]
}
