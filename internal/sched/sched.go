// Package sched defines the multi-GPU scheduling framework of the MICCO
// reproduction: the Scheduler interface, the per-stage bookkeeping state the
// paper's algorithms read (mapGPUTensor load counts, mapGPUMem memory
// projections), and the execution engine that
// replays scheduler decisions onto the simulated cluster (and, optionally,
// onto real CPU tensor kernels for numeric validation).
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/workload"
)

// Context is the scheduler-visible state, refreshed by the engine.
//
// Residency questions ("which GPUs hold tensor X?") are answered by the
// Cluster, which is ground truth across stages. Load questions ("how many
// tensors has GPU i been assigned?") use StageLoad, which resets at each
// stage boundary: the paper's reuse bounds are defined against the
// per-vector balance point numTensor/numGPU.
type Context struct {
	Cluster *gpusim.Cluster
	NumGPU  int
	// BalanceNum is ceil(stage tensor slots / NumGPU): the perfectly
	// balanced per-GPU tensor count for the current stage.
	BalanceNum int
	// StageLoad[i] is the number of tensor slots assigned to GPU i within
	// the current stage (the size of the paper's mapGPUTensor entry).
	StageLoad []int
	// Features are the current stage's data characteristics, for
	// schedulers that consult a reuse-bound model.
	Features workload.Features
	// StageIndex is the index of the current stage.
	StageIndex int
	// Down is the set of devices currently removed by fault injection
	// (always empty in fault-free runs). Schedulers must not assign pairs
	// to a down device — the engine rejects such placements with
	// ErrInvalidDevice. One bit test per candidate keeps the check free.
	Down gpusim.DevSet
	// Obs is the run's metrics registry, nil when observability is off.
	// All obs instruments are nil-safe, so schedulers may use it
	// unconditionally.
	Obs *obs.Registry
	// Decision, when non-nil, is the in-flight placement's decision
	// record. The engine fills the identity, pattern and cost fields;
	// schedulers fill the fields only they know (gating bound, policy,
	// candidate scores) inside Assign. The policy is an obs.Policy code, so
	// a scheduler names one of the rules obs lists; it cannot invent a new
	// policy string. Schedulers MUST guard on
	// Decision != nil before touching it — the nil check is what keeps
	// the placement hot path allocation-free when observability is off.
	Decision *obs.DecisionRecord
	// avail is the availability index (see Avail), created on first use.
	// tracked marks a Context from NewContext, whose index is maintained
	// incrementally.
	avail   *AvailIndex
	tracked bool
	// pair is the in-flight pair's operands, set by the engine around Assign.
	pair pairHolders
}

// pairHolders is what the engine has already resolved about the pair it is
// asking a scheduler to place: the operands' IDs and their holder sets.
type pairHolders struct {
	inFlight bool
	a, b     uint64
	ma, mb   gpusim.DevSet
}

// NewContext returns the scheduler context for a run on cluster c, with
// zeroed per-device load and compute books and Down taken from the
// cluster. Its availability index (Avail) is maintained incrementally from
// the cluster's dirty-device set, which holds the caller to two rules:
// StageLoad changes only through AddLoad and ResetLoad, and Down is
// reassigned only from Cluster.FailedMask after the cluster changed a
// device's failed state. A Context built as a struct literal is under no
// such rules and pays for it with an index rebuild per Avail call.
func NewContext(c *gpusim.Cluster) *Context {
	n := c.NumDevices()
	return &Context{
		Cluster:   c,
		NumGPU:    n,
		StageLoad: make([]int, n),
		Down:      c.FailedMask(),
		tracked:   true,
	}
}

// AddLoad adds slots tensor slots to device dev's StageLoad, telling the
// availability index when that moves the device across its eligibility
// limit.
func (c *Context) AddLoad(dev, slots int) {
	old := c.StageLoad[dev]
	c.StageLoad[dev] = old + slots
	if ix := c.avail; ix != nil && ix.built && (old < ix.lim) != (old+slots < ix.lim) {
		ix.loadDirty = append(ix.loadDirty, dev)
	}
}

// ResetLoad zeroes every device's StageLoad at a stage boundary.
func (c *Context) ResetLoad() {
	clear(c.StageLoad)
	if ix := c.avail; ix != nil {
		ix.built = false
	}
}

// HoldersMask returns the set of devices holding tensor id, without
// allocating. Inside Assign the pair's own operands cost two comparisons —
// the engine resolved both sets before it called — and any other tensor, or
// any tensor of a Context the engine did not make, one probe of the
// cluster's id→slot table.
func (c *Context) HoldersMask(id uint64) gpusim.DevSet {
	if c.pair.inFlight {
		if id == c.pair.a {
			return c.pair.ma
		}
		if id == c.pair.b {
			return c.pair.mb
		}
	}
	return c.Cluster.HoldersMask(id)
}

// ClassifyMasks maps a pair's holder sets to its local reuse pattern
// (paper Fig. 4): both operands share a device, both are resident on
// disjoint devices, exactly one is resident, or neither is. It is the one
// Table-II classification the engine, the MICCO scheduler and the
// baselines all share — two mask lookups and a few word tests, no device
// loop.
func ClassifyMasks(a, b gpusim.DevSet) obs.ReusePattern {
	switch {
	case a.Intersects(b):
		return obs.TwoRepeatedSame
	case !a.Empty() && !b.Empty():
		return obs.TwoRepeatedDiff
	case !a.Empty() || !b.Empty():
		return obs.OneRepeated
	default:
		return obs.TwoNew
	}
}

// ProjectedMem returns the bytes GPU dev would hold after executing pair p
// there: current usage plus any non-resident input plus the output.
func (c *Context) ProjectedMem(dev int, p workload.Pair) int64 {
	return c.ProjectedMemMasked(dev, p, c.HoldersMask(p.A.ID), c.HoldersMask(p.B.ID))
}

// ProjectedMemMasked is ProjectedMem with the pair's holder masks already
// in hand, so schedulers probing many candidate devices against one pair
// pay the residency lookups once instead of twice per device.
func (c *Context) ProjectedMemMasked(dev int, p workload.Pair, ma, mb gpusim.DevSet) int64 {
	m := c.Cluster.Device(dev).MemUsed()
	if !ma.Has(dev) {
		m += p.A.Bytes()
	}
	if !mb.Has(dev) && p.B.ID != p.A.ID {
		m += p.B.Bytes()
	}
	m += p.Out.Bytes()
	return m
}

// Scheduler assigns tensor pairs to GPUs. Implementations must be
// deterministic given their construction parameters.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// BeginStage is called once per stage before any Assign call, letting
	// schedulers refresh per-stage state (e.g. predict reuse bounds).
	BeginStage(ctx *Context)
	// Assign returns the GPU (0..NumGPU-1) that should execute pair p.
	Assign(p workload.Pair, ctx *Context) int
}

// Options controls engine behaviour.
type Options struct {
	// DiscardDeadInputs drops input tensors from all memories after their
	// final consumer runs (workload LastUse marks). Off by default: the
	// paper's memory-cost accounting keeps data live.
	DiscardDeadInputs bool
	// Numeric executes every contraction with real complex128 arithmetic
	// on the CPU in addition to the timing simulation, enabling numeric
	// validation. Expensive; use small workloads. The stream runs once, at
	// the last stage's boundary, as batches of ready pairs in demand order
	// across the stage boundaries. Each tensor's storage is
	// freed after its last reader completes (liveness is exact, derived
	// from the workload's read counts, mirroring the simulator's
	// DiscardDeadInputs policy) and recycled into later outputs, so memory
	// is bounded by the live working set; Result.NumericFingerprint is the
	// one a store keeping every tensor would give, at any pool size.
	Numeric bool
	// NumericSeed seeds the random input data in numeric mode.
	NumericSeed int64
	// NumericReclaim is ignored: numeric mode always reclaims.
	//
	// Deprecated: kept only because the ladder benchmark under bench/ sets
	// it; the next change to bench/ deletes it.
	NumericReclaim bool
	// Obs attaches a metrics registry to the run: the engine emits
	// per-stage spans and wall-clock phase timings, a DecisionRecord per
	// placement (reuse pattern, gating bound, candidate scores, predicted
	// vs actual transfer bytes), and the simulator feeds per-channel
	// transfer/eviction counters, link occupancy and memory high-water
	// marks into the same registry. Result.Metrics snapshots it at the
	// end of the run. Nil (the default) disables observability entirely;
	// the placement hot path then performs no extra allocations.
	Obs *obs.Registry
	// Parallelism sets the width of numeric mode's worker pool (PoolSize).
	// Scheduler decisions and the timing simulation always replay
	// sequentially (the paper's Algorithms 1-2 are order-dependent); at
	// the last stage's boundary the engine goroutine runs the stream's real
	// CPU contractions as batches of ready pairs, one work item per
	// (pair, group) product, working alongside the pool's parked
	// goroutines. N > 1 is a pool of N; 0 and 1 both select
	// runtime.GOMAXPROCS(0). 1 is not one thread: there is a single
	// numeric path, it always fans a batch over the machine, and the
	// ladder's deck_numeric set-up runs a Parallelism 1 job whose cost is
	// bounded on that basis. Results are bit-for-bit identical at any
	// setting.
	Parallelism int
	// RecordAssignments retains the per-pair device choices in the result.
	RecordAssignments bool
	// FaultPlan injects the plan's fault events (device loss, link
	// degradation, memory shrink, transient transfer failures) at their
	// deterministic pair boundaries and enables the recovery machinery:
	// lost outputs are recomputed on survivors, transient failures retried
	// under the plan's backoff policy. Nil (the default) disables fault
	// injection entirely; the per-pair hot path then costs one extra nil
	// check and no allocations.
	FaultPlan *fault.Plan
	// Checkpoint records the run at every stage boundary;
	// Result.Checkpoint carries the latest checkpoint — the completed run's
	// on success, the last boundary before failure when Run returns an
	// error (alongside the partial Result) — for Options.ResumeFrom.
	Checkpoint bool
	// ResumeFrom restarts a run from a stage-boundary checkpoint: the
	// stages before Checkpoint.NextStage are replayed from its log, unwatched,
	// and execution continues there under this run's scheduler and plan.
	// The workload, cluster configuration, DiscardDeadInputs, retry policy
	// and numeric seed must match the checkpointed run; events of an
	// attached FaultPlan that had already fired do not re-fire.
	ResumeFrom *Checkpoint
	// CheckpointDir, when non-empty, persists stage-boundary checkpoints
	// durably (atomic write + fsync + rename) at
	// CheckpointPath(CheckpointDir, workload), so a run survives process
	// death and resumes from disk via LoadCheckpointFile. Implies
	// Checkpoint. The directory is created if missing.
	CheckpointDir string
	// CheckpointEvery writes a durable checkpoint only at every Nth stage
	// boundary (plus always the final one); <= 1 writes at every boundary.
	// In-memory snapshots (Result.Checkpoint) still update every stage.
	CheckpointEvery int
	// Progress, when non-nil, is bumped once per successfully placed pair
	// — a monotone liveness signal external watchdogs poll to detect a
	// stalled run without touching the engine. A resume's replay of its
	// checkpoint's stages places pairs too, and counts. One nil check on
	// the hot path; no allocations either way.
	Progress *Progress
}

// PoolSize resolves Parallelism to the width of the numeric worker pool,
// the engine goroutine included: N for N > 1, GOMAXPROCS for 0 and for 1.
func (o Options) PoolSize() int {
	if o.Parallelism > 1 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Result summarizes one engine run.
type Result struct {
	Scheduler string
	Workload  string
	// Makespan is the simulated wall time in seconds.
	Makespan float64
	// GFLOPS is total kernel FLOPs divided by makespan.
	GFLOPS float64
	// SchedOverhead is the real (host) time spent inside scheduler calls,
	// the paper's "scheduling overhead" (Table V): every BeginStage and
	// recovery re-placement timed, and Assign timed on one pair in eight
	// of a stage, each reading standing for the pairs up to the next one.
	// A run that placed a pair reports more than zero.
	SchedOverhead time.Duration
	// Total aggregates device counters; PerDevice retains each device's.
	Total     gpusim.DeviceStats
	PerDevice []gpusim.DeviceStats
	// Assignments holds the chosen device per pair, stage-major, when
	// Options.RecordAssignments is set; -1 marks a pair a failed run did
	// not place.
	Assignments [][]int
	// NumericFingerprint is the sum of Frobenius norms of all outputs in
	// numeric mode (0 otherwise). Scheduler choices must not change it.
	NumericFingerprint float64
	// Metrics is the end-of-run snapshot of Options.Obs (nil when
	// observability was off). Decision records are not embedded — read
	// them from the registry via Decisions().
	Metrics *obs.Snapshot
	// Recovery summarizes fault-injection and recovery activity; all
	// fields are zero when no fault plan was attached.
	Recovery RecoveryStats
	// Checkpoint is the latest stage-boundary checkpoint when
	// Options.Checkpoint is set (nil otherwise): the final boundary on
	// success, the last completed boundary when the run failed mid-stage.
	Checkpoint *Checkpoint
}

// obsRun is the engine's watching layer: the registry, the run span and the
// in-flight stage span, and the pre-resolved counters the per-pair loop
// feeds. A nil *obsRun disables everything at the cost of one pointer
// comparison per use.
type obsRun struct {
	reg      *obs.Registry
	runSpan  *obs.ActiveSpan
	stage    *obs.ActiveSpan // the open stage span, nil between stages
	simStart float64         // its simulated start
	wall0    time.Duration   // its wall-clock start, since the engine's clock0
	// patterns are the reuse-pattern counters; patternN what the run has
	// placed per pattern since flush last published it. The engine is their
	// one writer, so a placement is an increment, not an atomic add.
	patterns [obs.NumReusePatterns]*obs.Counter
	patternN [obs.NumReusePatterns]int64
	schedule *obs.Counter // wall seconds inside scheduler calls
	simulate *obs.Counter // wall seconds inside the timing simulator
	numeric  *obs.Counter // wall seconds in numeric contractions
}

// patternSeries pre-builds the reuse-pattern counter names so per-run
// observability setup performs no formatting.
var patternSeries = func() (t [obs.NumReusePatterns]string) {
	for p := range t {
		t[p] = `micco_sched_pattern_total{pattern="` + obs.ReusePattern(p).String() + `"}`
	}
	return
}()

// newObsRun opens the run span and attaches the registry to the cluster's
// simulator; finish detaches it.
func newObsRun(reg *obs.Registry, s Scheduler, w *workload.Workload, c *gpusim.Cluster) *obsRun {
	if reg == nil {
		return nil
	}
	o := &obsRun{reg: reg}
	o.runSpan = reg.StartSpan("run", nil)
	o.runSpan.SetAttr("scheduler", s.Name())
	o.runSpan.SetAttr("workload", w.Name)
	for p := 0; p < obs.NumReusePatterns; p++ {
		o.patterns[p] = reg.Counter(patternSeries[p])
	}
	o.schedule = reg.Counter("micco_engine_schedule_seconds_total")
	o.simulate = reg.Counter("micco_engine_simulate_seconds_total")
	o.numeric = reg.Counter("micco_engine_numeric_seconds_total")
	reg.ReserveDecisions(w.NumPairs())
	c.SetObserver(reg)
	return o
}

// flush publishes what the run has accumulated but not yet published — the
// simulator sink's batch and the pattern counts — where the sink always has:
// at every stage boundary, when a run fails and when it finishes. Nil-safe:
// without a registry of the run's own it flushes only the cluster's sink.
func (o *obsRun) flush(c *gpusim.Cluster) {
	c.FlushObserver()
	if o == nil {
		return
	}
	for p, n := range o.patternN {
		if n != 0 {
			o.patterns[p].Add(float64(n))
			o.patternN[p] = 0
		}
	}
}

// beginStage opens stage si's span and notes where it starts in simulated
// and wall-clock time.
func (o *obsRun) beginStage(e *engine, si int) {
	if o == nil {
		return
	}
	o.stage = o.reg.StartSpan("stage", o.runSpan)
	o.stage.SetAttr("index", strconv.Itoa(si))
	o.stage.SetAttr("pairs", strconv.Itoa(len(e.w.Stages[si].Pairs)))
	o.simStart = e.c.Makespan()
	o.wall0 = time.Since(e.clock0)
}

// endStage publishes the stage's batch and its wall-time attribution and
// closes its span. Simulate time is the stage-wall remainder: everything
// outside scheduler calls and numeric work is the timing simulation plus
// the engine's own (tiny) loop bookkeeping. Deriving it this way keeps the
// per-pair loop's clock reads those of the obs-off path.
func (o *obsRun) endStage(e *engine) {
	if o == nil {
		return
	}
	o.flush(e.c)
	simulateW := max(time.Since(e.clock0)-o.wall0-e.scheduleW-e.numericW, 0)
	o.schedule.Add(e.scheduleW.Seconds())
	o.simulate.Add(simulateW.Seconds())
	o.numeric.Add(e.numericW.Seconds())
	secs := func(d time.Duration) string { return strconv.FormatFloat(d.Seconds(), 'g', 6, 64) }
	o.stage.SetAttr("schedule_s", secs(e.scheduleW))
	o.stage.SetAttr("simulate_s", secs(simulateW))
	o.stage.SetAttr("numeric_s", secs(e.numericW))
	// Simulated-time stage window (full precision, round-trippable): the
	// report layer's per-stage utilization waterfall buckets trace events by
	// these boundaries.
	o.stage.SetAttr("sim_start_s", strconv.FormatFloat(o.simStart, 'g', -1, 64))
	o.stage.SetAttr("sim_end_s", strconv.FormatFloat(e.c.Makespan(), 'g', -1, 64))
	o.stage.End()
	o.stage = nil
}

// finish flushes (the snapshot needs the sink's batch tail and memory
// high-water, and the pending pattern counts), publishes a finished run's
// gauges or marks a failed run's open stage span and run span with the
// error, closes them, so every recorded span keeps its parent, snapshots
// the registry into the result and detaches the simulator.
func (o *obsRun) finish(e *engine, err error) {
	if o == nil {
		return
	}
	res := e.res
	o.flush(e.c)
	if err != nil {
		o.stage.SetAttr("error", err.Error())
		o.stage.End()
		o.runSpan.SetAttr("error", err.Error())
	} else {
		o.reg.Gauge("micco_run_makespan_seconds").Set(res.Makespan)
		o.reg.Gauge("micco_run_gflops").Set(res.GFLOPS)
		o.reg.Counter("micco_sched_overhead_seconds_total").Add(res.SchedOverhead.Seconds())
	}
	o.runSpan.End()
	res.Metrics = o.reg.Snapshot()
	e.c.SetObserver(nil)
}

// engine is the per-run state of the place → simulate core plus one
// pointer per layer, nil when its feature is off. One engine value lives per
// Run call; its hot-path fields are read through one pointer, keeping the
// fault-free per-pair loop free of allocations.
type engine struct {
	ctx  context.Context
	w    *workload.Workload
	s    Scheduler
	c    *gpusim.Cluster
	opts Options
	sctx *Context
	res  *Result
	ob   *obsRun
	ck   *ckptRun
	num  *numericRun
	// rp is the checkpoint's log while a resumed run replays its finished
	// stages, nil otherwise.
	rp *replayLog
	// fr is the live fault-injection state, nil without a fault plan (the
	// per-pair cost of the feature is then a single nil check).
	fr *faultRun
	n  int
	// overhead is cumulative scheduler wall time; scheduleW/numericW are the
	// current stage's wall-time attribution (zeroed at each stage start).
	overhead            time.Duration
	scheduleW, numericW time.Duration
	// decRec is the run's single decision-record scratch: placePair
	// resets and refills it per pair, RecordDecision deep-copies what it
	// keeps (including Candidates, into the registry's arena), so the
	// obs-on hot path performs no per-pair allocation.
	decRec obs.DecisionRecord
	// clock0 anchors all per-pair wall-time attribution: reading the
	// clock as a time.Since(clock0) delta costs one monotonic read,
	// about half a full time.Now (which also fetches wall time), and the
	// hot loop reads it twice around one Assign in assignEvery.
	clock0 time.Time
}

// afterRun, when non-nil, is the one layer tests attach: handed the engine
// and its error as every Run past validation ends, finished or failed. This
// package's tests hang the simulator's structural audit
// (gpusim.Cluster.Audit) and a checker of the run's trace and records on it,
// and leave it off when benchmarks run.
var afterRun func(e *engine, err error)

// discard drops the dead input in slot. Under a fault plan only device
// copies are dropped: the host copy must survive as the recovery source if
// a later device loss destroys tensors the input's consumers produced.
func (e *engine) discard(slot int) {
	if e.fr != nil {
		e.c.DiscardDeviceCopiesAt(slot)
	} else {
		e.c.DiscardAt(slot)
	}
}

// execSim runs one contraction on the simulator. Under a fault plan,
// injected transient transfer failures are retried under the plan's
// capped-exponential backoff policy, each retry charging its backoff to
// the device's simulated transfer queue; the error surfaces as fatal once
// the attempt budget is exhausted.
func (e *engine) execSim(si, dev int, p *workload.Pair) error {
	sa, sb, so := p.Slots()
	_, err := e.c.ExecContractionAt(dev, &p.A, &p.B, &p.Out, sa, sb, so)
	if err != nil && e.fr != nil {
		for attempt := 1; errors.Is(err, gpusim.ErrTransientTransfer); attempt++ {
			if attempt > e.fr.retry.Max {
				return fmt.Errorf("sched: stage %d: %d transfer retries exhausted: %w", si, e.fr.retry.Max, err)
			}
			backoff := e.fr.retry.Backoff(attempt)
			if cerr := e.c.ChargeExternalTransfer(dev, backoff); cerr != nil {
				return cerr
			}
			e.res.Recovery.TransientRetries++
			e.res.Recovery.BackoffSimSeconds += backoff
			e.fr.retries.Inc()
			e.fr.backoff.Add(backoff)
			_, err = e.c.ExecContractionAt(dev, &p.A, &p.B, &p.Out, sa, sb, so)
		}
	}
	if err != nil {
		return fmt.Errorf("sched: stage %d: %w", si, err)
	}
	return nil
}

// assignEvery is the stride of the sampled Assign timing: a stage's pairs
// pi%assignEvery == 0 are timed. Two clock reads cost more than a warm
// flat MICCO Assign, so timing every pair spent more on the clock than on
// what it measured; on Table V's workload one pair in eight reads within
// the run-to-run spread of the per-pair sum (DESIGN §14).
const assignEvery = 8

// assignWeight is how many of a stage's n pairs the Assign of pair pi
// stands for in SchedOverhead: min(assignEvery, n−pi) for a timed pair,
// none for the others, so the samples cover every pair of the stage once.
func assignWeight(pi, n int) int {
	if pi%assignEvery != 0 {
		return 0
	}
	return min(assignEvery, n-pi)
}

// placePair runs one pair through the full placement path: decision-record
// setup, scheduler Assign (timed on a sample, see assignWeight, and every
// recovery re-placement on its own), device validation, simulated execution
// (with transient retry), decision actuals, per-stage load accounting,
// and dead-input discard. recovery marks a re-placement by the
// failure-recovery path: the decision record is tagged. Numerics are not
// part of placement — the engine contracts each stage's pairs once, at its
// boundary, however often recovery re-places them — which keeps
// fingerprints bit-identical to a fault-free run.
func (e *engine) placePair(si, pi int, p *workload.Pair, recovery bool) error {
	sctx, c := e.sctx, e.c
	var rec *obs.DecisionRecord
	var beforeMove, beforeD2H, beforeEvict int64
	// Both operands' holder sets, resolved once from the pair's slots: the
	// scheduler reads them through the Context, the decision record below.
	sa, sb, _ := p.Slots()
	pr := &sctx.pair
	pr.inFlight, pr.a, pr.b = true, p.A.ID, p.B.ID
	pr.ma, pr.mb = c.HoldersAt(sa), c.HoldersAt(sb)
	if e.ob != nil {
		// One scratch record per run: the zero-value reset keeps the
		// Candidates backing array, which RecordDecision deep-copies into
		// its own arena, so the obs-on placement path allocates nothing.
		// Field by field: a composite literal would be built aside and
		// copied in, 128 bytes a pair.
		rec = &e.decRec
		cands := rec.Candidates[:0]
		*rec = obs.DecisionRecord{}
		rec.Stage, rec.Pair, rec.Out, rec.A, rec.B = int32(si), int32(pi), p.Out.ID, p.A.ID, p.B.ID
		rec.BalanceNum, rec.BoundIndex, rec.Pattern = int32(sctx.BalanceNum), -1, ClassifyMasks(pr.ma, pr.mb)
		rec.Recovery, rec.Candidates = recovery, cands
		sctx.Decision = rec
	}
	weight := 1
	if !recovery {
		weight = assignWeight(pi, len(e.w.Stages[si].Pairs))
	}
	var tA time.Duration
	if weight > 0 {
		tA = time.Since(e.clock0)
	}
	dev := e.s.Assign(*p, sctx)
	if weight > 0 {
		d0 := (time.Since(e.clock0) - tA) * time.Duration(weight)
		e.overhead += d0
		e.scheduleW += d0
	}
	pr.inFlight = false // the sets are views: the simulator is about to move
	if dev < 0 || dev >= e.n {
		return fmt.Errorf("sched: %w: %s assigned pair to device %d of %d", ErrInvalidDevice, e.s.Name(), dev, e.n)
	}
	if sctx.Down.Has(dev) {
		return fmt.Errorf("sched: %w: %s assigned stage %d pair %d to failed device %d", ErrInvalidDevice, e.s.Name(), si, pi, dev)
	}
	if rec != nil {
		sctx.Decision = nil
		rec.Device = int32(dev)
		rec.SimTime = c.Device(dev).Clock()
		// Assign never moves data, so the pre-Assign masks still describe
		// residency here.
		if !pr.ma.Has(dev) {
			rec.PredictedBytes += p.A.Bytes()
		}
		if !pr.mb.Has(dev) && p.B.ID != p.A.ID {
			rec.PredictedBytes += p.B.Bytes()
		}
		beforeMove, beforeD2H, beforeEvict = c.MoveStats()
	}
	if err := e.execSim(si, dev, p); err != nil {
		return err
	}
	if rec != nil {
		afterMove, afterD2H, afterEvict := c.MoveStats()
		rec.ActualBytes = afterMove - beforeMove
		rec.ActualD2HBytes = afterD2H - beforeD2H
		rec.Evictions = int32(afterEvict - beforeEvict)
		e.ob.patternN[rec.Pattern]++
		e.ob.reg.RecordDecision(rec)
	}
	sctx.AddLoad(dev, 2)
	if e.opts.DiscardDeadInputs {
		if p.LastUse[0] {
			e.discard(sa)
		}
		if p.LastUse[1] && sb != sa {
			e.discard(sb)
		}
	}
	if a := e.res.Assignments; a != nil {
		a[si][pi] = dev
	}
	if k := e.ck; k != nil {
		k.log = append(k.log, dev)
	}
	if pr := e.opts.Progress; pr != nil {
		pr.pairs.Add(1)
	}
	return nil
}

// Run replays workload w through scheduler s on cluster c. The cluster is
// reset first (and, with Options.ResumeFrom, brought to the checkpoint's
// boundary by replaying its log), so each Run is independent and
// deterministic. w must come from a workload constructor;
// a struct literal is refused with workload.ErrUnnumbered.
//
// Scheduler decisions and the timing simulation replay sequentially; each
// stage boundary then runs, in order, numeric mode's real CPU contractions
// (the whole stream, at the last boundary only, on a worker pool sized by
// Options.Parallelism), the simulator's barrier, the stage span and the
// checkpoint. ctx cancels the run: Run returns
// ctx.Err() promptly, checked at every pair and between numeric batches.
//
// When Options.Obs is set the engine additionally records, into that
// registry: one DecisionRecord per placement, per-stage spans with
// schedule/simulate/numeric wall-time attribution, reuse-pattern counters,
// and end-of-run device gauges; Result.Metrics carries the snapshot.
//
// With Options.FaultPlan set the plan's events are injected at their
// deterministic pair boundaries and recovered from (Result.Recovery
// summarizes the damage); with Options.Checkpoint set an erroring run —
// fault-fatal or cancelled — returns its partial Result carrying the last
// stage-boundary checkpoint alongside the error.
func Run(ctx context.Context, w *workload.Workload, s Scheduler, c *gpusim.Cluster, opts Options) (*Result, error) {
	if w == nil || s == nil || c == nil {
		return nil, fmt.Errorf("sched: %w: workload, scheduler and cluster must be non-nil", ErrNilArgument)
	}
	if w.TensorIDs() == nil {
		return nil, fmt.Errorf("sched: %w", workload.ErrUnnumbered)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := c.NumDevices()
	ck, err := newCkptRun(w, opts, c.Config())
	if err != nil {
		return nil, err
	}
	if opts.FaultPlan != nil {
		if err := validatePlan(opts.FaultPlan, c.Config()); err != nil {
			return nil, err
		}
	}
	// The workload numbered its tensors when it was made; the cluster takes
	// the numbering over (free when it already has it) and every per-pair
	// residency question below is an array index.
	c.BindTensors(w.TensorIDs())
	c.Reset()
	for slot := range w.Inputs {
		c.RegisterHostAt(slot)
	}
	// From here on every exit is e.finish.
	e := &engine{ctx: ctx, w: w, s: s, c: c, opts: opts, sctx: NewContext(c), n: n, clock0: time.Now()}
	e.res = &Result{Scheduler: s.Name(), Workload: w.Name}
	if opts.RecordAssignments {
		e.res.Assignments = newAssignments(w)
	}
	e.num, err = newNumericRun(w, opts)
	start := 0
	if cp := opts.ResumeFrom; cp != nil && err == nil {
		start, err = cp.d.NextStage, e.replay(cp)
	}
	// The layers attach: they see the run from start on.
	e.ck, e.ob, e.sctx.Obs = ck, newObsRun(opts.Obs, s, w, c), opts.Obs
	if opts.FaultPlan != nil {
		e.fr = newFaultRun(opts.FaultPlan, opts.ResumeFrom, opts.Obs)
	}
	if err == nil {
		err = e.ck.open(e, start)
	}
	for si := start; si < len(w.Stages) && err == nil; si++ {
		err = e.stage(si)
	}
	return e.finish(err)
}

// stage places and simulates stage si's pairs, then crosses its boundary:
// numerics, the simulator's barrier, watching, checkpoint.
func (e *engine) stage(si int) error {
	st, sctx := &e.w.Stages[si], e.sctx
	sctx.StageIndex = si
	sctx.BalanceNum = (st.NumTensors() + e.n - 1) / e.n
	sctx.ResetLoad()
	sctx.Features = e.w.StageFeatures(si)
	e.scheduleW, e.numericW = 0, 0
	e.ob.beginStage(e, si)
	t0 := time.Now()
	e.s.BeginStage(sctx)
	d0 := time.Since(t0)
	e.overhead += d0
	e.scheduleW += d0
	for pi := range st.Pairs {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		if e.fr != nil {
			if err := e.fire(si, pi); err != nil {
				return err
			}
		}
		if err := e.placePair(si, pi, &st.Pairs[pi], false); err != nil {
			return err
		}
	}
	// Every pair of the stage is placed; after the last stage, contract
	// the stream.
	if err := e.num.run(e, si); err != nil {
		return err
	}
	e.c.Barrier()
	e.ob.endStage(e)
	return e.ck.snapshot(e, si+1)
}

// finish is the one exit of every Run whose layers are attached. The layers
// close, a lost cluster freezes the flight recorder's tail as its last dump
// (a no-op without one; the post-mortem of an unrecoverable run is what it
// exists for) and the audit hook runs; a failed run keeps its partial
// result only when a checkpoint goes with it.
func (e *engine) finish(err error) (*Result, error) {
	res, c := e.res, e.c
	if err == nil {
		res.Makespan, res.GFLOPS, res.SchedOverhead, res.Total = c.Makespan(), c.GFLOPS(), e.overhead, c.TotalStats()
		res.PerDevice = make([]gpusim.DeviceStats, e.n)
		for i := range res.PerDevice {
			res.PerDevice[i] = c.Device(i).Stats()
		}
	}
	e.num.finish(e, err)
	e.ob.finish(e, err)
	if errors.Is(err, ErrClusterLost) {
		e.opts.Obs.FlightRecorder().Dump(err.Error())
	}
	res.Checkpoint = e.ck.result(e, err)
	if afterRun != nil {
		afterRun(e, err)
	}
	if err != nil && res.Checkpoint == nil {
		return nil, err
	}
	return res, err
}

// newAssignments carves Result.Assignments out of one flat stage-major
// record, every pair -1 until placed: a recovery re-placement of an earlier
// pair updates its original slot in place.
func newAssignments(w *workload.Workload) [][]int {
	flat := make([]int, w.NumPairs())
	for i := range flat {
		flat[i] = -1
	}
	out := make([][]int, len(w.Stages))
	for si := range out {
		k := len(w.Stages[si].Pairs)
		out[si], flat = flat[:k:k], flat[k:]
	}
	return out
}

// Speedup returns how much faster r is than baseline in throughput terms:
// 0 when either result is nil or baseline has no throughput.
func Speedup(r, baseline *Result) float64 {
	if r == nil || baseline == nil || baseline.GFLOPS == 0 {
		return 0
	}
	return r.GFLOPS / baseline.GFLOPS
}
