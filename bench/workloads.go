package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/obs"
	"micco/internal/redstar"
	"micco/internal/report"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

//go:embed decks/a1_rhopi_t4_b2.json
var deckNumericJSON []byte

//go:embed decks/f0d4_t64_m3.json
var deckPlanJSON []byte

// miccoBounds are the fixed reuse bounds every workload schedules with.
var miccoBounds = core.Bounds{0, 2, 0}

// hierNodeBound is the node-level bound of the registry's "hier" scheduler.
const hierNodeBound = 16

// outcome is the part of a job's result that its inputs determine: two
// jobs of one set-up must return equal outcomes, which is how every timed
// job is verified. Makespan is simulated seconds; nothing here is host time.
type outcome struct {
	Makespan                 float64 // sum of Result.Makespan over the job's runs
	Evictions, H2D, P2P, D2H int64
	ReuseHits, ColdMisses    int64
	Fingerprint              float64  // numeric fingerprint, 0 for schedule-only jobs
	Events, Decisions        int      // simulator trace events and decision records kept
	Segments                 int      // critical-path segments
	ReportSHA                [32]byte // SHA-256 of the rendered text report
}

func (o *outcome) add(r *sched.Result) {
	o.Makespan += r.Makespan
	o.Evictions += r.Total.Evictions
	o.H2D += r.Total.H2DBytes
	o.P2P += r.Total.P2PBytes
	o.D2H += r.Total.D2HBytes
	o.ReuseHits += r.Total.ReuseHits
	o.ColdMisses += r.Total.ColdMisses
}

// goldenEntry is an outcome as bench/golden.json pins it at the default
// seed: floats as hexadecimal literals so the comparison is bit-exact.
type goldenEntry struct {
	Makespan     string `json:"sim_makespan_s"`
	Evictions    int64  `json:"evictions"`
	H2D          int64  `json:"h2d_bytes"`
	P2P          int64  `json:"p2p_bytes"`
	D2H          int64  `json:"d2h_bytes"`
	Fingerprint  string `json:"numeric_fingerprint,omitempty"`
	ReportSHA256 string `json:"report_sha256,omitempty"`
}

func (o outcome) golden() goldenEntry {
	g := goldenEntry{
		Makespan:  strconv.FormatFloat(o.Makespan, 'x', -1, 64),
		Evictions: o.Evictions, H2D: o.H2D, P2P: o.P2P, D2H: o.D2H,
	}
	if o.Fingerprint != 0 {
		g.Fingerprint = strconv.FormatFloat(o.Fingerprint, 'x', -1, 64)
	}
	if o.ReportSHA != ([32]byte{}) {
		g.ReportSHA256 = hex.EncodeToString(o.ReportSHA[:])
	}
	return g
}

// job is one workload set up and ready to be timed.
type job interface {
	// pairs is the number of pairs one run places (report_build: analyses).
	pairs() int
	// run performs the one timed operation. With a non-nil tracer it
	// records a span around every call into a layer.
	run(tr *tracer) (outcome, error)
	// selfCheck makes the workload's own checks on the reference outcome
	// during set-up; an error fails the set-up.
	selfCheck(ref outcome) error
	// layers makes the replayed and differential measurements of the
	// traced pass and stores them in m.
	layers(tr *tracer, m map[string]float64, outDir string) error
}

// workloadDef names a workload and builds it from a seed. small selects the
// reduced sizes the tests use.
type workloadDef struct {
	name, why string
	setup     func(seed int64, small bool) (job, error)
}

var workloads = []workloadDef{
	{"deck_numeric", "time to solution: a1_rhopi deck parsed, planned, scheduled and contracted numerically; tensor and the numeric engine do nearly all the work", setupDeckNumeric},
	{"sched_scale", "bare placement loop on 4096 devices, obs off, no numerics: core and hier Assign dominate, tensor, obs and the front end do nothing", setupSchedScale},
	{"observed_run", "8 devices under memory pressure, watched: eviction and write-back in gpusim plus decision records, spans and simulator tracing", setupObservedRun},
	{"deck_plan", "f0d4 deck with 64 time slices parsed, Wick-expanded, deduplicated and staged: the front end dominates, the run is a few percent", setupDeckPlan},
	{"report_build", "the miccoreport stage on a recorded observed run: critical path, waterfall, drift and rendering; every other layer is idle", setupReportBuild},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// schedule is the one place the bench calls sched.Run. With a tracer the
// scheduler is handed over inside the timing decorator, whose spans land
// under the run's span in the named layer.
func schedule(tr *tracer, layer string, w *workload.Workload, s sched.Scheduler, c *gpusim.Cluster, opts sched.Options) (*sched.Result, error) {
	id := tr.begin("sched", "sched.Run")
	var ts *timedScheduler
	if tr != nil {
		ts = &timedScheduler{inner: s, tr: tr, layer: layer}
		s = ts
	}
	res, err := sched.Run(context.Background(), w, s, c, opts)
	if ts != nil {
		ts.flush()
	}
	tr.end(id)
	return res, err
}

// loadAndPlan is the front end of both deck workloads.
func loadAndPlan(tr *tracer, deck []byte) (*redstar.Build, error) {
	id := tr.begin("redstar", "redstar.LoadDeck")
	c, err := redstar.LoadDeck(bytes.NewReader(deck))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("redstar", "redstar.BuildPlan")
	b, err := c.BuildPlan()
	tr.end(id)
	return b, err
}

// shrinkDeck rewrites a bundled deck to timeSlices sink times.
func shrinkDeck(deck []byte, timeSlices int) ([]byte, error) {
	var d redstar.Deck
	if err := json.Unmarshal(deck, &d); err != nil {
		return nil, err
	}
	d.TimeSlices = timeSlices
	return json.Marshal(d)
}

// synthetic is the shape all generated workloads share; stages, vector size
// and repeat rate vary per workload.
func synthetic(seed int64, stages, vector int, repeat float64) workload.Config {
	return workload.Config{
		Seed: seed, Stages: stages, VectorSize: vector,
		TensorDim: 384, Batch: 8, Rank: tensor.RankMeson,
		RepeatRate: repeat, Dist: workload.Gaussian, ChainRate: 0.3,
	}
}

// ---- deck_numeric ----

type deckNumeric struct {
	deck  []byte
	seed  int64
	build *redstar.Build // the set-up job's, for the layer measurements
}

func setupDeckNumeric(seed int64, small bool) (job, error) {
	d := &deckNumeric{deck: deckNumericJSON, seed: seed}
	if small {
		var err error
		if d.deck, err = shrinkDeck(d.deck, 1); err != nil {
			return nil, err
		}
	}
	var err error
	d.build, err = loadAndPlan(nil, d.deck)
	return d, err
}

func (d *deckNumeric) pairs() int { return d.build.Workload.NumPairs() }

// selfCheck reruns the job on the serial engine and under another
// scheduler: neither the pool nor the placement may change the fingerprint.
func (d *deckNumeric) selfCheck(ref outcome) error {
	for _, alt := range []struct {
		name string
		s    sched.Scheduler
		pool int
	}{{"Parallelism 1", core.NewFixed(miccoBounds), 1}, {"groute", baseline.NewGroute(), 0}} {
		got, err := d.solve(nil, alt.s, alt.pool)
		if err != nil {
			return err
		}
		if got.Fingerprint != ref.Fingerprint {
			return fmt.Errorf("fingerprint %x under %s, %x by default", got.Fingerprint, alt.name, ref.Fingerprint)
		}
	}
	return nil
}

func (d *deckNumeric) run(tr *tracer) (outcome, error) {
	return d.solve(tr, core.NewFixed(miccoBounds), 0)
}

func (d *deckNumeric) solve(tr *tracer, s sched.Scheduler, pool int) (outcome, error) {
	var o outcome
	b, err := loadAndPlan(tr, d.deck)
	if err != nil {
		return o, err
	}
	id := tr.begin("gpusim", "gpusim.NewCluster")
	c, err := gpusim.NewCluster(gpusim.MI100(8))
	tr.end(id)
	if err != nil {
		return o, err
	}
	res, err := schedule(tr, "core", b.Workload, s, c, d.options(true, pool))
	if err != nil {
		return o, err
	}
	o.add(res)
	o.Fingerprint = res.NumericFingerprint
	return o, nil
}

func (d *deckNumeric) options(numeric bool, pool int) sched.Options {
	return sched.Options{Numeric: numeric, NumericSeed: d.seed, NumericReclaim: numeric, Parallelism: pool}
}

// ---- sched_scale ----

type schedScale struct {
	cfg  workload.Config
	gcfg gpusim.Config
	w    *workload.Workload
	c    *gpusim.Cluster
}

func setupSchedScale(seed int64, small bool) (job, error) {
	s := &schedScale{cfg: synthetic(seed, 4, 4096, 0.5), gcfg: gpusim.MI100Nodes(512, 8)}
	if small {
		s.cfg.Stages, s.cfg.VectorSize, s.gcfg = 2, 128, gpusim.MI100Nodes(16, 8)
	}
	var err error
	if s.w, err = workload.Generate(s.cfg); err != nil {
		return nil, err
	}
	s.c, err = gpusim.NewCluster(s.gcfg)
	return s, err
}

func (s *schedScale) pairs() int { return 2 * s.w.NumPairs() }

func (s *schedScale) selfCheck(outcome) error { return nil }

func (s *schedScale) run(tr *tracer) (outcome, error) {
	var o outcome
	for _, alt := range []struct {
		layer string
		s     sched.Scheduler
	}{{"core", core.NewFixed(miccoBounds)}, {"hier", hier.New(hierNodeBound, miccoBounds)}} {
		res, err := schedule(tr, alt.layer, s.w, alt.s, s.c, sched.Options{})
		if err != nil {
			return o, err
		}
		o.add(res)
	}
	return o, nil
}

// ---- observed_run ----

type observedRun struct {
	cfg workload.Config
	w   *workload.Workload
	c   *gpusim.Cluster
}

// recording is what one observed run leaves behind: the input of a report.
type recording struct {
	res       *sched.Result
	events    []gpusim.Event
	decisions []obs.DecisionRecord
}

func setupObservedRun(seed int64, small bool) (job, error) {
	if small {
		return newObservedRun(synthetic(seed, 3, 128, 0.6))
	}
	return newObservedRun(synthetic(seed, 10, 1024, 0.6))
}

// newObservedRun sizes device memory to a sixteenth of the workload's
// unique bytes and keeps dead inputs, so that LRU eviction and dirty
// write-back run beside reuse hits.
func newObservedRun(cfg workload.Config) (*observedRun, error) {
	r := &observedRun{cfg: cfg}
	var err error
	if r.w, err = workload.Generate(cfg); err != nil {
		return nil, err
	}
	gcfg := gpusim.MI100(8)
	gcfg.MemoryBytes = r.w.TotalUniqueBytes() / 16
	r.c, err = gpusim.NewCluster(gcfg)
	return r, err
}

func (r *observedRun) pairs() int { return r.w.NumPairs() }

// selfCheck fails the set-up when the run is not under memory pressure.
func (r *observedRun) selfCheck(ref outcome) error {
	if least := int64(r.w.NumPairs() / 2); ref.Evictions < least {
		return fmt.Errorf("%d evictions, want at least %d: no memory pressure", ref.Evictions, least)
	}
	return nil
}

// record runs the workload watched: simulator trace on, a fresh registry
// collecting decision records, spans, the simulator sink and the snapshot.
func (r *observedRun) record(tr *tracer) (*recording, error) {
	r.c.StartTrace()
	reg := obs.New()
	res, err := schedule(tr, "core", r.w, core.NewFixed(miccoBounds), r.c, sched.Options{Obs: reg})
	events := r.c.StopTrace()
	if err != nil {
		return nil, err
	}
	rec := &recording{res: res, events: events, decisions: reg.Decisions()}
	if len(rec.decisions) != r.w.NumPairs() {
		return nil, fmt.Errorf("observed_run: %d decision records for %d pairs", len(rec.decisions), r.w.NumPairs())
	}
	var moved int64
	for i := range rec.decisions {
		moved += rec.decisions[i].ActualBytes
	}
	if want := res.Total.H2DBytes + res.Total.P2PBytes; moved != want {
		return nil, fmt.Errorf("observed_run: decisions account for %d moved bytes, the run moved %d", moved, want)
	}
	if res.Metrics == nil || res.Metrics.Decisions != len(rec.decisions) {
		return nil, fmt.Errorf("observed_run: metrics snapshot missing or out of step with the decision records")
	}
	return rec, nil
}

func (r *observedRun) run(tr *tracer) (outcome, error) {
	var o outcome
	rec, err := r.record(tr)
	if err != nil {
		return o, err
	}
	o.add(rec.res)
	o.Events, o.Decisions = len(rec.events), len(rec.decisions)
	return o, nil
}

// ---- deck_plan ----

type deckPlan struct {
	deck  []byte
	c     *gpusim.Cluster
	build *redstar.Build
}

func setupDeckPlan(_ int64, small bool) (job, error) {
	d := &deckPlan{deck: deckPlanJSON}
	var err error
	if small {
		if d.deck, err = shrinkDeck(d.deck, 2); err != nil {
			return nil, err
		}
	}
	if d.build, err = loadAndPlan(nil, d.deck); err != nil {
		return nil, err
	}
	d.c, err = gpusim.NewCluster(gpusim.MI100(8))
	return d, err
}

func (d *deckPlan) pairs() int { return d.build.Workload.NumPairs() }

func (d *deckPlan) selfCheck(outcome) error { return nil }

func (d *deckPlan) run(tr *tracer) (outcome, error) {
	var o outcome
	b, err := loadAndPlan(tr, d.deck)
	if err != nil {
		return o, err
	}
	res, err := schedule(tr, "core", b.Workload, core.NewFixed(miccoBounds), d.c, sched.Options{})
	if err != nil {
		return o, err
	}
	o.add(res)
	return o, nil
}

// ---- report_build ----

type reportBuild struct {
	in  report.Input
	rec *recording
}

func setupReportBuild(seed int64, small bool) (job, error) {
	cfg := synthetic(seed, 10, 512, 0.6)
	if small {
		cfg = synthetic(seed, 3, 128, 0.6)
	}
	run, err := newObservedRun(cfg)
	if err != nil {
		return nil, err
	}
	rec, err := run.record(nil)
	if err != nil {
		return nil, err
	}
	var o outcome
	o.add(rec.res)
	if err := run.selfCheck(o); err != nil {
		return nil, err
	}
	return &reportBuild{rec: rec, in: report.Input{
		Scheduler: rec.res.Scheduler, Workload: rec.res.Workload,
		Devices: run.c.NumDevices(), Makespan: rec.res.Makespan,
		Events: rec.events, Decisions: rec.decisions, Snapshot: rec.res.Metrics,
	}}, nil
}

func (r *reportBuild) pairs() int { return len(r.rec.decisions) }

func (r *reportBuild) selfCheck(outcome) error { return nil }

func (r *reportBuild) run(tr *tracer) (outcome, error) {
	var o outcome
	id := tr.begin("report", "report.Build")
	rep := report.Build(r.in)
	tr.end(id)
	var text, js bytes.Buffer
	id = tr.begin("report", "report.WriteText")
	err := rep.WriteText(&text)
	tr.end(id)
	if err != nil {
		return o, err
	}
	id = tr.begin("report", "report.WriteJSON")
	err = rep.WriteJSON(&js)
	tr.end(id)
	if err != nil {
		return o, err
	}
	segs := rep.CriticalPath.Segments
	at := 0.0
	for _, s := range segs {
		if s.Start != at {
			return o, fmt.Errorf("report_build: critical-path segment starts at %g, the previous ended at %g", s.Start, at)
		}
		at = s.End
	}
	if at != rep.Makespan {
		return o, fmt.Errorf("report_build: critical path ends at %g, makespan %g", at, rep.Makespan)
	}
	o.add(r.rec.res)
	o.Events, o.Decisions, o.Segments = len(r.rec.events), len(r.rec.decisions), len(segs)
	o.ReportSHA = sha256.Sum256(text.Bytes())
	return o, nil
}
