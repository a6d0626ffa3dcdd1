package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/graph"
	"micco/internal/hier"
	"micco/internal/obs"
	"micco/internal/obsfile"
	"micco/internal/report"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/wick"
	"micco/internal/workload"
)

// reps is how often a replayed or differential measurement is repeated; the
// median is reported.
const reps = 5

// tracedPass is the -trace 1 run: traced jobs, alternating with as many
// untraced jobs to price the tracing, for half of the time, then the
// workload's replayed and differential measurements. It reports every
// per-layer metric and writes the spans to outDir when the run ends.
func tracedPass(def workloadDef, seed int64, seconds float64, small bool, outDir string) (*result, error) {
	j, ref, err := setUp(def, seed, small)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Traced and untraced jobs alternate, so drift and cache state price
	// neither side of bench.trace_overhead_share.
	var traced, untraced, reference []float64
	failed := 0
	for start := time.Now(); len(traced) < 5 || time.Since(start).Seconds() < seconds/2; {
		for _, t := range []*tracer{tr, nil} {
			s := timed(j, ref, t, def.name, 0, 1)
			failed += s.failed
			reference = append(reference, s.reference...)
			if t != nil {
				traced = append(traced, s.wall...)
			} else {
				untraced = append(untraced, s.wall...)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	if failed > 0 {
		// A failed job may have left spans open; its numbers mean nothing.
		return nil, fmt.Errorf("%s: %d jobs of the traced pass failed verification", def.name, failed)
	}

	m := make(map[string]float64)
	jobs := float64(len(traced))
	var span int64
	for jb := 1; jb <= tr.jobs; jb++ {
		byLayer, total := tr.selfTimes(jb)
		span += total
		var sum int64
		for layer, ns := range byLayer {
			m[layer+".self_ms"] += float64(ns) / 1e6 / jobs
			sum += ns
		}
		if sum != total {
			return nil, fmt.Errorf("%s: job %d: self times sum to %d ns, the job span is %d ns", def.name, jb, sum, total)
		}
	}
	m["bench.job_span_ms"] = float64(span) / 1e6 / jobs
	perJob := func(metric, spanName string) {
		busy, _ := tr.busyOf(spanName)
		m[metric] = float64(busy) / 1e6 / jobs
	}
	perJob("redstar.load_deck_ms", "redstar.LoadDeck")
	perJob("redstar.build_plan_ms", "redstar.BuildPlan")
	perJob("gpusim.new_cluster_ms", "gpusim.NewCluster")
	perJob("sched.run_ms", "sched.Run")
	for _, layer := range []string{"core", "hier"} {
		if busy, calls := tr.busyOf(layer + ".Assign"); calls > 0 {
			m[layer+".assign_ns_per_pair"] = float64(busy) / float64(calls)
			m[layer+".assign_calls"] = float64(calls) / jobs
		}
	}
	m["gpusim.sim_makespan"] = ref.Makespan
	m["gpusim.evictions"] = float64(ref.Evictions)
	if uses := ref.ReuseHits + ref.ColdMisses; uses > 0 {
		m["gpusim.reuse_hit_share"] = float64(ref.ReuseHits) / float64(uses)
	}
	m["gpusim.moved_gb"] = float64(ref.H2D+ref.P2P) / 1e9
	m["gpusim.d2h_gb"] = float64(ref.D2H) / 1e9
	m["gpusim.trace_events"] = float64(ref.Events)
	m["obs.decisions"] = float64(ref.Decisions)
	m["bench.job_ms_p50"] = median(untraced)
	m["bench.job_ms_p90"] = quantile(untraced, 0.9)
	m["bench.job_ms_iqr_share"] = (quantile(untraced, 0.75) - quantile(untraced, 0.25)) / median(untraced)
	m["bench.trace_overhead_share"] = (median(traced) - median(untraced)) / median(untraced)
	m["bench.speed_factor"] = speedFactor(reference)
	m["bench.gc_cycles_per_job"] = float64(m1.NumGC-m0.NumGC) / (2 * jobs)

	if err := j.layers(tr, m, outDir); err != nil {
		return nil, fmt.Errorf("%s: layer measurements: %w", def.name, err)
	}
	if err := tr.write(outDir, def.name); err != nil {
		return nil, err
	}
	return newResult(perLayer, m, len(traced)+len(untraced), 0), nil
}

// medianOf repeats f and returns the median of the milliseconds it reports.
func medianOf(f func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// probe times f reps times, each as a span of the given technique made
// after the traced jobs, and returns the median in milliseconds.
func probe(tr *tracer, layer, name, technique string, f func() error) (float64, error) {
	return medianOf(func() (float64, error) {
		var err error
		d := tr.extra(layer, name, technique, func() { err = f() })
		return d, err
	})
}

// runMS times one sched.Run, recorded as a differential span.
func runMS(tr *tracer, name string, w *workload.Workload, s sched.Scheduler, c *gpusim.Cluster, opts sched.Options) (float64, *sched.Result, error) {
	var res *sched.Result
	var err error
	d := tr.extra("sched", name, differential, func() {
		res, err = sched.Run(context.Background(), w, s, c, opts)
	})
	return d, res, err
}

// replay re-issues a recorded run's placements on the cluster from outside
// the engine, making exactly the cluster calls sched.Run makes for a run
// that keeps dead inputs: Reset, RegisterHostTensor per input,
// ExecContraction per pair, Barrier per stage. It returns what the
// simulator then reports, which must equal the recorded run's.
func replay(c *gpusim.Cluster, w *workload.Workload, assignments [][]int) (outcome, error) {
	var o outcome
	c.Reset()
	for _, d := range w.Inputs {
		c.RegisterHostTensor(d)
	}
	for si := range w.Stages {
		for pi, p := range w.Stages[si].Pairs {
			if _, err := c.ExecContraction(assignments[si][pi], p.A, p.B, p.Out); err != nil {
				return o, err
			}
		}
		c.Barrier()
	}
	o.add(&sched.Result{Makespan: c.Makespan(), Total: c.TotalStats()})
	return o, nil
}

// engineSplit splits a schedule-only sched.Run from outside: the run is
// repeated with its assignments recorded, the assignments are replayed on
// the simulator alone, and what is left of the run after the scheduler
// time it reports itself (Result.SchedOverhead) and the replayed simulator
// time is the engine's own. Runs added to one split are summed.
type engineSplit struct {
	runMS, restMS, execMS float64 // whole runs, runs without scheduler calls, replays
	pairs                 int
}

func (e *engineSplit) add(tr *tracer, w *workload.Workload, s func() sched.Scheduler, c *gpusim.Cluster) error {
	var rec *sched.Result
	var runs []float64
	rest, err := medianOf(func() (float64, error) {
		d, res, err := runMS(tr, "sched.Run schedule-only", w, s(), c, sched.Options{RecordAssignments: true})
		if err != nil {
			return 0, err
		}
		rec = res
		runs = append(runs, d)
		return d - ms(res.SchedOverhead), nil
	})
	if err != nil {
		return err
	}
	var want outcome
	want.add(rec)
	exec, err := medianOf(func() (float64, error) {
		var got outcome
		var err error
		d := tr.extra("gpusim", "replay ExecContraction+Barrier", replayed, func() { got, err = replay(c, w, rec.Assignments) })
		if err == nil && got != want {
			err = fmt.Errorf("replayed run reports %+v, the recorded run %+v", got, want)
		}
		return d, err
	})
	if err != nil {
		return err
	}
	e.runMS += median(runs)
	e.restMS += rest
	e.execMS += exec
	e.pairs += w.NumPairs()
	return nil
}

func (e *engineSplit) store(m map[string]float64) {
	m["gpusim.exec_ns_per_pair"] = e.execMS * 1e6 / float64(e.pairs)
	m["sched.engine_self_ns_per_pair"] = (e.restMS - e.execMS) * 1e6 / float64(e.pairs)
}

func newMicco() sched.Scheduler { return core.NewFixed(miccoBounds) }

// ---- deck_numeric ----

func (d *deckNumeric) layers(tr *tracer, m map[string]float64, _ string) error {
	w := d.build.Workload
	c, err := gpusim.NewCluster(gpusim.MI100(8))
	if err != nil {
		return err
	}
	var split engineSplit
	if err := split.add(tr, w, newMicco, c); err != nil {
		return err
	}
	split.store(m)

	numeric := func(pool int) (float64, error) {
		return medianOf(func() (float64, error) {
			d, _, err := runMS(tr, fmt.Sprintf("sched.Run numeric Parallelism=%d", pool), w, newMicco(), c, d.options(true, pool))
			return d, err
		})
	}
	pooled, err := numeric(0)
	if err != nil {
		return err
	}
	serial, err := numeric(1)
	if err != nil {
		return err
	}
	m["sched.numeric_ms"] = pooled - split.runMS
	m["sched.numeric_pool_speedup"] = serial / pooled

	m["redstar.evaluate_numeric_ms"], err = probe(tr, "redstar", "Build.EvaluateNumericMode", direct, func() error {
		_, err := d.build.EvaluateNumericMode(d.seed, 0, tensor.ModeExact)
		return err
	})
	if err != nil {
		return err
	}

	// One contraction at the job's shape, and the job's work computed
	// from shapes (no cache misses counted).
	p := w.Stages[0].Pairs[0]
	rng := rand.New(rand.NewSource(d.seed))
	a, err := tensor.NewRandom(p.A, rng)
	if err != nil {
		return err
	}
	b, err := tensor.NewRandom(p.B, rng)
	if err != nil {
		return err
	}
	flops, err := tensor.ContractFLOPs(p.A, p.B)
	if err != nil {
		return err
	}
	var dst tensor.Tensor
	contract := func(mode tensor.KernelMode) (float64, error) {
		return probe(tr, "tensor", "tensor.ContractIntoMode "+mode.String(), direct, func() error { return tensor.ContractIntoMode(&dst, a, b, p.Out.ID, 0, mode) })
	}
	exact, err := contract(tensor.ModeExact)
	if err != nil {
		return err
	}
	fast, err := contract(tensor.ModeFast)
	if err != nil {
		return err
	}
	m["tensor.contract_ms"] = exact
	m["tensor.kernel_gflops_exact"] = float64(flops) / 1e9 / (exact / 1e3)
	m["tensor.kernel_gflops_fast"] = float64(flops) / 1e9 / (fast / 1e3)
	m["tensor.flops_per_job"] = float64(w.TotalFLOPs()) / 1e9
	var moved int64
	for si := range w.Stages {
		for _, p := range w.Stages[si].Pairs {
			moved += p.A.Bytes() + p.B.Bytes() + p.Out.Bytes()
		}
	}
	m["tensor.bytes_per_job"] = float64(moved) / 1e9
	return nil
}

// ---- sched_scale ----

func (s *schedScale) layers(tr *tracer, m map[string]float64, _ string) error {
	var err error
	m["workload.generate_ms"], err = probe(tr, "workload", "workload.Generate", direct, func() error {
		_, err := workload.Generate(s.cfg)
		return err
	})
	if err != nil {
		return err
	}
	m["gpusim.new_cluster_ms"], err = probe(tr, "gpusim", "gpusim.NewCluster", direct, func() error {
		_, err := gpusim.NewCluster(s.gcfg)
		return err
	})
	if err != nil {
		return err
	}
	var split engineSplit
	if err := split.add(tr, s.w, newMicco, s.c); err != nil {
		return err
	}
	if err := split.add(tr, s.w, func() sched.Scheduler { return hier.New(hierNodeBound, miccoBounds) }, s.c); err != nil {
		return err
	}
	split.store(m)
	return nil
}

// ---- observed_run ----

func (r *observedRun) layers(tr *tracer, m map[string]float64, outDir string) error {
	pairs := float64(r.w.NumPairs())
	var err error
	m["workload.generate_ms"], err = probe(tr, "workload", "workload.Generate", direct, func() error {
		_, err := workload.Generate(r.cfg)
		return err
	})
	if err != nil {
		return err
	}
	var split engineSplit
	if err := split.add(tr, r.w, newMicco, r.c); err != nil {
		return err
	}
	split.store(m)

	// The same run with one feature on at a time: the registry, the
	// simulator trace, durable checkpoints.
	variant := func(name string, trace bool, opts func() sched.Options) (wall, mallocs float64, err error) {
		wall, err = medianOf(func() (float64, error) {
			if trace {
				r.c.StartTrace()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d, _, err := runMS(tr, name, r.w, newMicco(), r.c, opts())
			runtime.ReadMemStats(&m1)
			r.c.StopTrace()
			mallocs = float64(m1.Mallocs - m0.Mallocs)
			return d, err
		})
		return wall, mallocs, err
	}
	plain, plainMallocs, err := variant("sched.Run obs off", false, func() sched.Options { return sched.Options{} })
	if err != nil {
		return err
	}
	watched, watchedMallocs, err := variant("sched.Run obs on", false, func() sched.Options { return sched.Options{Obs: obs.New()} })
	if err != nil {
		return err
	}
	m["obs.overhead_ns_per_pair"] = (watched - plain) * 1e6 / pairs
	m["obs.allocs_per_pair"] = (watchedMallocs - plainMallocs) / pairs
	simTraced, _, err := variant("sched.Run trace on", true, func() sched.Options { return sched.Options{} })
	if err != nil {
		return err
	}
	m["gpusim.trace_overhead_ns_per_pair"] = (simTraced - plain) * 1e6 / pairs

	tmp, err := tempDir(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var reg *obs.Registry
	var last *sched.Result
	durable, err := medianOf(func() (float64, error) {
		reg = obs.New()
		d, res, err := runMS(tr, "sched.Run obs on, CheckpointDir", r.w, newMicco(), r.c, sched.Options{Obs: reg, CheckpointDir: tmp, CheckpointEvery: 5})
		last = res
		return d, err
	})
	if err != nil {
		return err
	}
	m["sched.checkpoint_overhead_ms"] = durable - watched
	m["sched.checkpoint_writes"] = reg.Counter("micco_checkpoint_writes_total").Value()
	m["sched.checkpoint_bytes"] = reg.Counter("micco_checkpoint_bytes_written_total").Value()
	var enc bytes.Buffer
	m["sched.checkpoint_encode_ms"], err = probe(tr, "sched", "sched.EncodeCheckpoint", direct, func() error {
		enc.Reset()
		_, err := sched.EncodeCheckpoint(&enc, last.Checkpoint)
		return err
	})
	if err != nil {
		return err
	}
	m["sched.checkpoint_decode_ms"], err = probe(tr, "sched", "sched.DecodeCheckpoint", direct, func() error {
		_, err := sched.DecodeCheckpoint(bytes.NewReader(enc.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	m["sched.checkpoint_save_file_ms"], err = probe(tr, "sched", "sched.SaveCheckpointFile", direct, func() error {
		_, err := sched.SaveCheckpointFile(filepath.Join(tmp, "probe.mcck"), last.Checkpoint)
		return err
	})
	if err != nil {
		return err
	}

	// One watched run's artifacts, written the way the CLIs write them.
	rec, err := r.record(nil)
	if err != nil {
		return err
	}
	m["obs.snapshot_ms"], err = probe(tr, "obs", "Registry.Snapshot", direct, func() error {
		reg.Snapshot()
		return nil
	})
	if err != nil {
		return err
	}
	for _, f := range []struct {
		metric, file string
		write        func(path string) error
	}{
		{"obsfile.write_metrics_ms", "metrics.json", func(p string) error { return obsfile.WriteMetrics(p, nil, rec.res.Metrics) }},
		{"obsfile.write_decisions_ms", "decisions.ndjson", func(p string) error { return obsfile.WriteDecisions(p, nil, rec.decisions) }},
		{"obsfile.write_trace_ms", "trace.json", func(p string) error { return obsfile.WriteTrace(p, nil, rec.events, rec.decisions) }},
	} {
		path := filepath.Join(tmp, f.file)
		m[f.metric], err = probe(tr, "obsfile", "obsfile "+f.file, direct, func() error { return f.write(path) })
		if err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		m["obsfile.bytes_written"] += float64(st.Size())
	}
	return nil
}

// tempDir makes a scratch directory under outDir, inside the checkout.
func tempDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}

// ---- deck_plan ----

// conjugate is redstar's sink-side operator: every quark flipped to the
// antiquark of its flavor and back.
func conjugate(op wick.Operator) wick.Operator {
	out := wick.Operator{Name: op.Name + "†"}
	for _, q := range op.Quarks {
		out.Quarks = append(out.Quarks, wick.Quark{Flavor: q.Flavor, Bar: !q.Bar})
	}
	return out
}

// layers re-drives the front end's stages one by one in BuildPlan's loop
// order, which splits redstar.build_plan_ms into wick, graph and workload.
func (d *deckPlan) layers(tr *tracer, m map[string]float64, _ string) error {
	cor := d.build.Correlator
	var (
		all    []*graph.Graph
		unique []*graph.Graph
		plan   *graph.Plan
		bt     *wick.BlockTable
		err    error
	)
	m["wick.expand_ms"], err = probe(tr, "wick", "wick.Expand loop", replayed, func() error {
		bt = wick.NewBlockTableWithRank(cor.TensorDim, cor.Batch, tensor.RankMeson)
		all = all[:0]
		var gid int
		for t := 1; t <= cor.TimeSlices; t++ {
			for _, src := range cor.Constructions {
				for _, snk := range cor.Constructions {
					spec := wick.Spec{Name: cor.Name, Source: src.Ops, Momenta: cor.Momenta, TensorDim: cor.TensorDim, Batch: cor.Batch}
					for _, op := range snk.Ops {
						spec.Sink = append(spec.Sink, conjugate(op))
					}
					gs, err := wick.Expand(spec, 0, t, bt, &gid)
					if err != nil {
						return err
					}
					all = append(all, gs...)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["wick.graphs_expanded"] = float64(len(all))
	m["graph.dedup_ms"], _ = probe(tr, "graph", "graph.Dedup", replayed, func() error {
		unique = graph.Dedup(all)
		return nil
	})
	m["graph.unique_share"] = float64(len(unique)) / float64(len(all))
	if len(unique) != d.build.NumGraphs {
		return fmt.Errorf("replayed front end keeps %d unique graphs, BuildPlan kept %d", len(unique), d.build.NumGraphs)
	}
	m["graph.build_plan_ms"], err = probe(tr, "graph", "graph.BuildPlan", replayed, func() (err error) {
		plan, err = graph.BuildPlan(unique, bt.NextID())
		return err
	})
	if err != nil {
		return err
	}
	m["graph.plan_ops"] = float64(len(plan.Ops))
	if len(plan.Ops) != d.build.Workload.NumPairs() {
		return fmt.Errorf("replayed front end plans %d ops, BuildPlan planned %d", len(plan.Ops), d.build.Workload.NumPairs())
	}
	stages := make([][]workload.Pair, len(plan.StageOps))
	for si, ops := range plan.StageOps {
		for _, oi := range ops {
			op := plan.Ops[oi]
			stages[si] = append(stages[si], workload.Pair{A: op.A, B: op.B, Out: op.Out})
		}
	}
	m["workload.from_stages_ms"], err = probe(tr, "workload", "workload.FromStages", replayed, func() error {
		_, err := workload.FromStages(cor.Name, stages, plan.Inputs)
		return err
	})
	if err != nil {
		return err
	}
	var split engineSplit
	if err := split.add(tr, d.build.Workload, newMicco, d.c); err != nil {
		return err
	}
	split.store(m)
	return nil
}

// ---- report_build ----

func (r *reportBuild) layers(tr *tracer, m map[string]float64, _ string) error {
	// None of the report's stages returns an error.
	var cp *report.CriticalPath
	m["report.critical_path_ms"], _ = probe(tr, "report", "report.CriticalPathOf", direct, func() error {
		cp = report.CriticalPathOf(r.in.Events, r.in.Makespan)
		return nil
	})
	m["report.critical_path_ns_per_event"] = m["report.critical_path_ms"] * 1e6 / float64(len(r.in.Events))
	m["report.segments"] = float64(len(cp.Segments))
	m["report.events"] = float64(len(r.in.Events))
	m["report.waterfall_ms"], _ = probe(tr, "report", "report.StageWaterfall", direct, func() error {
		report.StageWaterfall(r.in.Snapshot.Spans, r.in.Events, r.in.Devices)
		return nil
	})
	m["report.drift_ms"], _ = probe(tr, "report", "report.SummarizeDrift", direct, func() error {
		report.SummarizeDrift(r.in.Decisions)
		return nil
	})
	text, _ := tr.busyOf("report.WriteText")
	js, _ := tr.busyOf("report.WriteJSON")
	m["report.render_ms"] = float64(text+js) / 1e6 / float64(tr.jobs)
	return nil
}
