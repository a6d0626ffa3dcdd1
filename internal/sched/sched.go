// Package sched defines the multi-GPU scheduling framework of the MICCO
// reproduction: the Scheduler interface, the per-stage bookkeeping state the
// paper's algorithms read (mapGPUTensor load counts, mapGPUCom compute
// costs, mapGPUMem memory projections), and the execution engine that
// replays scheduler decisions onto the simulated cluster (and, optionally,
// onto real CPU tensor kernels for numeric validation).
package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/numeric"
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
	// Comp[i] is the cumulative kernel time (seconds) assigned to GPU i
	// (the paper's mapGPUCom). Schedulers that want the device's live
	// queue position — kernel plus memory-operation cost, realigned at
	// each stage barrier — should read Cluster.Device(i).Clock() instead.
	Comp []float64
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
		Comp:      make([]float64, n),
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
	// validation. Expensive; use small workloads. Each tensor's storage is
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
	// each stage boundary the engine goroutine runs the stage's real CPU
	// contractions as dependency levels of batches, one work item per
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
	// Checkpoint snapshots the run at every stage boundary;
	// Result.Checkpoint carries the latest snapshot — the completed run's
	// on success, the last boundary before failure when Run returns an
	// error (alongside the partial Result) — for Options.ResumeFrom.
	Checkpoint bool
	// ResumeFrom restarts a run from a stage-boundary checkpoint instead
	// of from scratch: the cluster is restored to the snapshot and
	// execution continues at Checkpoint.NextStage. The workload, cluster
	// shape and (for bit-identical fingerprints) numeric options must
	// match the checkpointed run; events of an attached FaultPlan that had
	// already fired do not re-fire.
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
	// stalled run without touching the engine. One nil check on the hot
	// path; no allocations either way.
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
	// the paper's "scheduling overhead" (Table V).
	SchedOverhead time.Duration
	// Total aggregates device counters; PerDevice retains each device's.
	Total     gpusim.DeviceStats
	PerDevice []gpusim.DeviceStats
	// Assignments holds the chosen device per pair, stage-major, when
	// Options.RecordAssignments is set.
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
	// Checkpoint is the latest stage-boundary snapshot when
	// Options.Checkpoint is set (nil otherwise): the final state on
	// success, the last completed boundary when the run failed mid-stage.
	Checkpoint *Checkpoint
}

// obsRun bundles the engine's per-run observability state: the registry,
// the run-level span, and the pre-resolved counters the per-pair loop
// feeds. A nil *obsRun disables everything at the cost of one pointer
// comparison per use.
type obsRun struct {
	reg     *obs.Registry
	runSpan *obs.ActiveSpan
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

func newObsRun(reg *obs.Registry, s Scheduler, w *workload.Workload) *obsRun {
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
	return o
}

// deviceSeries returns the per-device series `base{device="i"}`.
func deviceSeries(base string, i int) string {
	return base + `{device="` + strconv.Itoa(i) + `"}`
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

// finish flushes (the snapshot needs the sink's batch tail and memory
// high-water, and the pending pattern counts), closes the run span and
// publishes the end-of-run gauges.
func (o *obsRun) finish(res *Result, c *gpusim.Cluster) {
	if o == nil {
		return
	}
	o.flush(c)
	o.reg.Gauge("micco_run_makespan_seconds").Set(res.Makespan)
	o.reg.Gauge("micco_run_gflops").Set(res.GFLOPS)
	o.reg.Counter("micco_sched_overhead_seconds_total").Add(res.SchedOverhead.Seconds())
	for i := 0; i < c.NumDevices(); i++ {
		st := c.Device(i).Stats()
		busy := st.KernelTime + st.TransferTime + st.EvictTime + st.AllocTime
		o.reg.Gauge(deviceSeries("micco_device_busy_seconds", i)).Set(busy)
		if res.Makespan > 0 {
			o.reg.Gauge(deviceSeries("micco_device_utilization", i)).Set(busy / res.Makespan)
		}
	}
	o.runSpan.End()
	res.Metrics = o.reg.Snapshot()
}

// engine is the per-run execution state: everything the stage loop, the
// placement path and the fault machinery share. One engine value lives per
// Run call; its hot-path fields are read through one pointer, keeping the
// fault-free per-pair loop free of allocations.
type engine struct {
	ctx  context.Context
	w    *workload.Workload
	s    Scheduler
	c    *gpusim.Cluster
	opts Options
	ob   *obsRun
	sctx *Context
	// num is the run's numeric executor, nil unless Options.Numeric.
	num *numeric.Executor
	res *Result
	// fr is the live fault-injection state, nil without a fault plan (the
	// per-pair cost of the feature is then a single nil check).
	fr *faultRun
	n  int
	// overhead is cumulative scheduler wall time; scheduleW/simulateW/
	// numericW are the current stage's wall-time attribution (zeroed at
	// each stage start); numericTotal is the run's wall time in numerics.
	overhead                       time.Duration
	scheduleW, simulateW, numericW time.Duration
	numericTotal                   time.Duration
	// assignAll is the flat stage-major device-per-pair record, indexed
	// through stageOffsets so recovery re-placements of earlier pairs
	// update in place (nil unless RecordAssignments).
	assignAll    []int
	stageOffsets []int
	lastCP       *Checkpoint
	// digest is the pair stream's streamDigest, stamped on every
	// checkpoint (0 when the run neither takes nor resumes one).
	digest uint64
	// prog mirrors opts.Progress (nil when unset); ckptWrites/ckptBytes
	// are the durable-checkpoint counters, resolved once per run (nil-safe
	// no-ops without observability).
	prog       *Progress
	ckptWrites *obs.Counter
	ckptBytes  *obs.Counter
	// decRec is the run's single decision-record scratch: placePair
	// resets and refills it per pair, RecordDecision deep-copies what it
	// keeps (including Candidates, into the registry's arena), so the
	// obs-on hot path performs no per-pair allocation.
	decRec obs.DecisionRecord
	// clock0 anchors all per-pair wall-time attribution: reading the
	// clock as a time.Since(clock0) delta costs one monotonic read,
	// about half a full time.Now (which also fetches wall time), and the
	// hot loop reads the clock up to three times per pair.
	clock0 time.Time
}

// afterRun, when non-nil, is handed the cluster as every Run ends, whether
// it finished or failed. Nothing but this package's tests sets it: they hang
// the simulator's structural audit (gpusim.Cluster.Audit) on it, and leave
// it off when benchmarks run.
var afterRun func(*gpusim.Cluster)

// dumpFlight freezes the flight recorder's current tail as the last dump
// (no-op without observability or a recorder), so the activity leading up
// to a failure survives for post-mortem analysis.
func (e *engine) dumpFlight(reason string) {
	if e.ob != nil {
		e.ob.reg.FlightRecorder().Dump(reason)
	}
}

// fail finishes an erroring run: the simulator's sink publishes every event
// and the engine every placement up to the failure; with checkpointing on, the last
// stage-boundary snapshot (updated to the live fired-event mask, so the
// fatal event does not re-fire on resume) is attached to the partial
// result; otherwise the result is dropped as before. Losing the whole
// cluster additionally dumps the flight recorder: the post-mortem of an
// unrecoverable run is exactly what the recorder exists for.
func (e *engine) fail(err error) (*Result, error) {
	e.ob.flush(e.c)
	if afterRun != nil {
		afterRun(e.c)
	}
	if errors.Is(err, ErrClusterLost) {
		e.dumpFlight(err.Error())
	}
	if e.opts.Checkpoint && e.lastCP != nil {
		if e.fr != nil {
			e.lastCP.faultsFired = append([]bool(nil), e.fr.fired...)
		}
		e.res.Checkpoint = e.lastCP
		return e.res, err
	}
	return nil, err
}

// discard drops a dead input. Under a fault plan only device copies are
// dropped: the host copy must survive as the recovery source if a later
// device loss destroys tensors the input's consumers produced.
func (e *engine) discard(id uint64) {
	if e.fr != nil {
		e.c.DiscardDeviceCopies(id)
	} else {
		e.c.Discard(id)
	}
}

// execSim runs one contraction on the simulator. Under a fault plan,
// injected transient transfer failures are retried under the plan's
// capped-exponential backoff policy, each retry charging its backoff to
// the device's simulated transfer queue; the error surfaces as fatal once
// the attempt budget is exhausted.
func (e *engine) execSim(si, dev int, p *workload.Pair) (int64, error) {
	sa, sb, so := p.Slots()
	flops, err := e.c.ExecContractionAt(dev, &p.A, &p.B, &p.Out, sa, sb, so)
	if err != nil && e.fr != nil {
		for attempt := 1; errors.Is(err, gpusim.ErrTransientTransfer); attempt++ {
			if attempt > e.fr.retry.Max {
				return 0, fmt.Errorf("sched: stage %d: %d transfer retries exhausted: %w", si, e.fr.retry.Max, err)
			}
			backoff := e.fr.retry.Backoff(attempt)
			if cerr := e.c.ChargeExternalTransfer(dev, backoff); cerr != nil {
				return 0, cerr
			}
			e.res.Recovery.TransientRetries++
			e.res.Recovery.BackoffSimSeconds += backoff
			e.fr.retries.Inc()
			e.fr.backoff.Add(backoff)
			flops, err = e.c.ExecContractionAt(dev, &p.A, &p.B, &p.Out, sa, sb, so)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("sched: stage %d: %w", si, err)
	}
	return flops, nil
}

// placePair runs one pair through the full placement path: decision-record
// setup, scheduler Assign (timed), device validation, simulated execution
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
	tA := time.Since(e.clock0)
	dev := e.s.Assign(*p, sctx)
	tB := time.Since(e.clock0)
	pr.inFlight = false // the sets are views: the simulator is about to move
	d0 := tB - tA
	e.overhead += d0
	e.scheduleW += d0
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
	flops, err := e.execSim(si, dev, p)
	if err != nil {
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
	sctx.Comp[dev] += float64(flops) / c.Config().FLOPS
	if e.opts.DiscardDeadInputs {
		if p.LastUse[0] {
			e.discard(p.A.ID)
		}
		if p.LastUse[1] && p.B.ID != p.A.ID {
			e.discard(p.B.ID)
		}
	}
	if e.assignAll != nil {
		e.assignAll[e.stageOffsets[si]+pi] = dev
	}
	if e.prog != nil {
		e.prog.pairs.Add(1)
	}
	return nil
}

// Run replays workload w through scheduler s on cluster c. The cluster is
// reset first (or restored, with Options.ResumeFrom), so each Run is
// independent and deterministic.
//
// Scheduler decisions and the timing simulation replay sequentially; in
// numeric mode the engine then runs each stage's real CPU contractions at
// the stage boundary, on a worker pool sized by Options.Parallelism. ctx
// cancels the run: Run returns ctx.Err() promptly, checked at every pair
// and between numeric batches.
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
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := c.NumDevices()
	if opts.CheckpointDir != "" {
		opts.Checkpoint = true
	}
	resume := opts.ResumeFrom
	var digest uint64
	if opts.Checkpoint || resume != nil {
		digest = streamDigest(w)
	}
	if resume != nil {
		if err := resume.validateFor(w, digest, n); err != nil {
			return nil, err
		}
		if err := resume.validateNumeric(opts); err != nil {
			return nil, err
		}
	}
	if opts.FaultPlan != nil {
		if err := opts.FaultPlan.Validate(n); err != nil {
			return nil, err
		}
	}
	// The workload numbered its tensors when it was made; the cluster takes
	// the numbering over (free when it already has it) and every per-pair
	// residency question below is an array index.
	c.BindTensors(w.TensorIDs())
	if resume != nil {
		if err := c.Restore(resume.cluster); err != nil {
			return nil, err
		}
	} else {
		c.Reset()
		for slot, d := range w.Inputs {
			c.RegisterHostAt(slot, d)
		}
	}
	ob := newObsRun(opts.Obs, s, w)
	if ob != nil {
		c.SetObserver(opts.Obs)
		defer c.SetObserver(nil)
	}
	var num *numeric.Executor
	if opts.Numeric {
		var err error
		num, err = newNumeric(w, opts)
		if err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		// Every pool width owns parked workers: stop them on every exit
		// path so no goroutine outlives the run.
		defer num.Close()
	}
	sctx := NewContext(c)
	sctx.Obs = opts.Obs
	res := &Result{Scheduler: s.Name(), Workload: w.Name}
	e := &engine{ctx: ctx, w: w, s: s, c: c, opts: opts, ob: ob, sctx: sctx, num: num, res: res, n: n, digest: digest, clock0: time.Now()}
	e.prog = opts.Progress
	if opts.CheckpointDir != "" {
		// Only now, with every refusal behind it, does the run touch the
		// file system: a rejected run leaves no directory behind.
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("sched: checkpoint dir: %w", err)
		}
		e.ckptWrites = opts.Obs.Counter("micco_checkpoint_writes_total")
		e.ckptBytes = opts.Obs.Counter("micco_checkpoint_bytes_written_total")
	}
	if opts.FaultPlan != nil {
		e.fr = newFaultRun(opts.FaultPlan, resume, opts.Obs)
	}
	if opts.RecordAssignments {
		// One flat buffer backs every stage's assignment record, indexed
		// through per-stage offsets so recovery re-placements of earlier
		// pairs update their original slot in place.
		e.stageOffsets = make([]int, len(w.Stages)+1)
		for si := range w.Stages {
			e.stageOffsets[si+1] = e.stageOffsets[si] + len(w.Stages[si].Pairs)
		}
		e.assignAll = make([]int, e.stageOffsets[len(w.Stages)])
		for i := range e.assignAll {
			e.assignAll[i] = -1
		}
	}
	startStage := 0
	if resume != nil {
		startStage = resume.nextStage
		e.overhead = resume.overhead
		res.Recovery = resume.recovery
		if e.assignAll != nil && len(resume.assignments) == len(e.assignAll) {
			copy(e.assignAll, resume.assignments)
		}
		// Replay the completed prefix numerically: numeric state is a pure
		// function of the seed and the stream order, so re-executing it is
		// exactly equivalent to having checkpointed it, without snapshotting
		// tensor storage. Stage by stage, as the original run executed it,
		// so the replay is the identical batched stream.
		if num != nil {
			for si := 0; si < startStage; si++ {
				if err := e.runNumeric(w.Stages[si].Pairs); err != nil {
					return nil, fmt.Errorf("sched: stage %d: %w", si, err)
				}
			}
		}
	}
	if opts.Checkpoint {
		if err := e.snapshot(startStage); err != nil {
			return nil, err
		}
	}
	for si := startStage; si < len(w.Stages); si++ {
		st := &w.Stages[si]
		sctx.StageIndex = si
		sctx.BalanceNum = (st.NumTensors() + n - 1) / n
		sctx.ResetLoad()
		sctx.Features = w.StageFeatures(si)
		var stageSpan *obs.ActiveSpan
		var simStart float64
		var stageT0 time.Duration
		e.scheduleW, e.simulateW, e.numericW = 0, 0, 0
		if ob != nil {
			stageSpan = ob.reg.StartSpan("stage", ob.runSpan)
			stageSpan.SetAttr("index", strconv.Itoa(si))
			stageSpan.SetAttr("pairs", strconv.Itoa(len(st.Pairs)))
			simStart = c.Makespan()
			stageT0 = time.Since(e.clock0)
		}
		t0 := time.Now()
		s.BeginStage(sctx)
		d0 := time.Since(t0)
		e.overhead += d0
		e.scheduleW += d0
		for pi := range st.Pairs {
			if err := ctx.Err(); err != nil {
				return e.fail(err)
			}
			if e.fr != nil {
				if err := e.fire(si, pi); err != nil {
					return e.fail(err)
				}
			}
			if err := e.placePair(si, pi, &st.Pairs[pi], false); err != nil {
				return e.fail(err)
			}
		}
		if num != nil {
			// Every pair of the stage is placed: contract them, in stream
			// order, before the next stage reads their outputs.
			if err := e.runNumeric(st.Pairs); err != nil {
				return e.fail(fmt.Errorf("sched: stage %d: %w", si, err))
			}
		}
		c.Barrier()
		if ob != nil {
			ob.flush(c)
			// Simulate time is attributed as the stage-wall remainder:
			// everything outside scheduler calls and numeric work is the
			// timing simulation plus the engine's own (tiny) loop
			// bookkeeping. Deriving it this way keeps the per-pair loop at
			// two clock reads — the same as the obs-off path.
			e.simulateW = time.Since(e.clock0) - stageT0 - e.scheduleW - e.numericW
			if e.simulateW < 0 {
				e.simulateW = 0
			}
			ob.schedule.Add(e.scheduleW.Seconds())
			ob.simulate.Add(e.simulateW.Seconds())
			ob.numeric.Add(e.numericW.Seconds())
			stageSpan.SetAttr("schedule_s", formatSeconds(e.scheduleW))
			stageSpan.SetAttr("simulate_s", formatSeconds(e.simulateW))
			stageSpan.SetAttr("numeric_s", formatSeconds(e.numericW))
			// Simulated-time stage window (full precision, round-trippable):
			// the report layer's per-stage utilization waterfall buckets
			// trace events by these boundaries.
			stageSpan.SetAttr("sim_start_s", strconv.FormatFloat(simStart, 'g', -1, 64))
			stageSpan.SetAttr("sim_end_s", strconv.FormatFloat(c.Makespan(), 'g', -1, 64))
			stageSpan.End()
		}
		if opts.Checkpoint {
			if err := e.snapshot(si + 1); err != nil {
				return e.fail(err)
			}
		}
	}
	res.Makespan = c.Makespan()
	res.GFLOPS = c.GFLOPS()
	res.SchedOverhead = e.overhead
	res.Total = c.TotalStats()
	res.PerDevice = make([]gpusim.DeviceStats, n)
	for i := 0; i < n; i++ {
		res.PerDevice[i] = c.Device(i).Stats()
	}
	if e.assignAll != nil {
		res.Assignments = make([][]int, len(w.Stages))
		for si := range w.Stages {
			res.Assignments[si] = e.assignAll[e.stageOffsets[si]:e.stageOffsets[si+1]:e.stageOffsets[si+1]]
		}
	}
	if num != nil {
		res.NumericFingerprint = num.Fingerprint()
		if ob != nil {
			publishWorkerGauges(ob.reg, num.WorkerBusy(), e.numericTotal)
		}
	}
	if opts.Checkpoint {
		res.Checkpoint = e.lastCP
	}
	ob.finish(res, c)
	if afterRun != nil {
		afterRun(c)
	}
	return res, nil
}

// formatSeconds renders a wall duration as decimal seconds for span attrs.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', 6, 64)
}

// Speedup returns how much faster r is than baseline in throughput terms:
// 0 when either result is nil or baseline has no throughput.
func Speedup(r, baseline *Result) float64 {
	if r == nil || baseline == nil || baseline.GFLOPS == 0 {
		return 0
	}
	return r.GFLOPS / baseline.GFLOPS
}
