package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strconv"
	"time"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/workload"
)

// RecoveryStats summarizes the fault-injection and recovery activity of
// one run; all fields are zero when no fault plan was attached.
type RecoveryStats struct {
	// FaultsInjected counts plan events that fired.
	FaultsInjected int
	// DevicesLost / DevicesRestored count device-loss / device-restore
	// events applied.
	DevicesLost     int
	DevicesRestored int
	// PairsRescheduled counts pairs re-executed on survivors because a
	// device loss destroyed their outputs (the recovery closure).
	PairsRescheduled int
	// TransientRetries counts retried operand fetches;
	// BackoffSimSeconds is the simulated time charged to backoff.
	TransientRetries  int
	BackoffSimSeconds float64
	// FaultCharges accumulates simulator work performed by fault events
	// themselves outside any placement (today: the evictions and dirty
	// write-backs of a mem-shrink). Summing DecisionRecord actuals plus
	// FaultCharges reconciles exactly with the run's DeviceStats totals.
	FaultCharges gpusim.DeviceStats
}

// Checkpoint is a stage-granular record of a run: the inputs that
// reproduce it up to a stage boundary, not the state they produced. It holds
// the device every Assign call returned, in call order (recovery
// re-placements included), and the fault events the run applied, each at its
// position in that log. A resumed run replays the finished stages through the
// engine with the log standing in for the scheduler and the fault plan; the
// simulator and the numeric executor are deterministic (DESIGN §5), so the
// cluster and Result.NumericFingerprint come out bit-identical to an
// uninterrupted run under any Parallelism setting. What a replay cannot
// recompute — scheduler wall time and recovery statistics — is carried, and
// what the replay must match to be exact — the cluster configuration,
// DiscardDeadInputs and the retry policy — is checked on resume.
//
// Produce one with Options.Checkpoint (Result.Checkpoint); feed it back
// through Options.ResumeFrom on a fresh run over the same workload and
// cluster. The remaining stages run under the caller's scheduler and plan:
// placements may differ from the uninterrupted run when the scheduler
// carries internal state, which never affects the fingerprint.
type Checkpoint struct{ d checkpointData }

// checkpointData is a checkpoint's content and, as JSON, its durable
// payload (EncodeCheckpoint).
type checkpointData struct {
	Workload string `json:"workload"`
	// Digest fingerprints the workload's pair stream (streamDigest): two
	// workloads can share a name — a synthetic one's leaves out its seed —
	// and a resume on the other one is refused.
	Digest      uint64        `json:"stream_digest"`
	Scheduler   string        `json:"scheduler"`
	Config      gpusim.Config `json:"config"`
	DiscardDead bool          `json:"discard_dead_inputs,omitempty"`
	// Retry is the fault plan's resolved retry policy, nil when no plan was
	// ever attached: the replay retries transient failures, and keeps the
	// host copies of dead inputs, exactly as the run did.
	Retry     *fault.Retry  `json:"retry,omitempty"`
	NextStage int           `json:"next_stage"`
	Overhead  time.Duration `json:"overhead_ns"`
	Recovery  RecoveryStats `json:"recovery"`
	// Placements is the device of every Assign call, in call order.
	Placements []int `json:"placements"`
	// Faults are the events the run applied, in order.
	Faults []faultRecord `json:"faults,omitempty"`
	// FaultsFired marks plan events that had already fired, so a resume
	// with the same plan does not re-fire them (in particular not the
	// loss that interrupted the run).
	FaultsFired []bool `json:"faults_fired,omitempty"`
	// The resuming options must give the numeric stream the same seed.
	Numeric     bool  `json:"numeric,omitempty"`
	NumericSeed int64 `json:"numeric_seed,omitempty"`
}

// faultRecord is one fault event the run applied, before placement At of
// its log: the replay applies it when that many placements are behind it.
type faultRecord struct {
	At int `json:"at"`
	fault.Event
}

// NextStage returns the index of the first stage a resumed run will
// execute; it equals the workload's stage count for a completed run.
func (cp *Checkpoint) NextStage() int { return cp.d.NextStage }

// Workload returns the name of the workload the checkpoint was taken from.
func (cp *Checkpoint) Workload() string { return cp.d.Workload }

// Scheduler returns the name of the scheduler that produced the
// checkpointed prefix.
func (cp *Checkpoint) Scheduler() string { return cp.d.Scheduler }

// ReviveDevices returns every device that is down at the checkpoint's
// boundary to service: it appends one DeviceRestore record per such device
// at the end of the log, and the resume applies them as a plan's restore
// events are applied — empty memory, clocks at the makespan. Supervisors use
// it to turn an ErrClusterLost checkpoint back into a runnable one. Returns
// how many devices it revived.
func (cp *Checkpoint) ReviveDevices() int {
	down := make([]bool, cp.d.Config.NumDevices)
	for _, r := range cp.d.Faults {
		switch r.Kind {
		case fault.DeviceLoss:
			down[r.Device] = true
		case fault.DeviceRestore:
			down[r.Device] = false
		}
	}
	n := 0
	for dev, d := range down {
		if d {
			cp.d.Faults = append(cp.d.Faults, faultRecord{At: len(cp.d.Placements), Event: fault.Event{Kind: fault.DeviceRestore, Device: dev}})
			n++
		}
	}
	return n
}

// streamDigest fingerprints w's pair stream with 64-bit FNV-1a over
// little-endian words: the stage count, then per stage its pair count and
// each pair's A, B and Out IDs in order. Run computes it once, and only
// when it takes or resumes from a checkpoint.
func streamDigest(w *workload.Workload) uint64 {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(w.Stages)))
	h.Write(b[:8])
	for si := range w.Stages {
		ps := w.Stages[si].Pairs
		binary.LittleEndian.PutUint64(b[:], uint64(len(ps)))
		h.Write(b[:8])
		for pi := range ps {
			binary.LittleEndian.PutUint64(b[0:], ps[pi].A.ID)
			binary.LittleEndian.PutUint64(b[8:], ps[pi].B.ID)
			binary.LittleEndian.PutUint64(b[16:], ps[pi].Out.ID)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// faultRun is the engine's live fault-injection state: the plan, which
// events have fired, the retry policy, and pre-resolved observability
// instruments (nil — and therefore no-ops — when observability is off).
type faultRun struct {
	plan  *fault.Plan
	fired []bool
	retry fault.Retry

	injected    [fault.TransientTransfer + 1]*obs.Counter // by kind
	rescheduled *obs.Counter
	retries     *obs.Counter
	backoff     *obs.Counter
}

func newFaultRun(p *fault.Plan, resume *Checkpoint, reg *obs.Registry) *faultRun {
	fr := &faultRun{plan: p, retry: p.RetryPolicy(), fired: make([]bool, len(p.Events))}
	if resume != nil && len(resume.d.FaultsFired) == len(fr.fired) {
		copy(fr.fired, resume.d.FaultsFired)
	}
	if reg != nil {
		for k := range fr.injected {
			fr.injected[k] = reg.Counter(fmt.Sprintf("micco_fault_injected_total{kind=%q}", fault.Kind(k)))
		}
	}
	fr.rescheduled = reg.Counter("micco_fault_pairs_rescheduled_total")
	fr.retries = reg.Counter("micco_fault_transient_retries_total")
	fr.backoff = reg.Counter("micco_fault_backoff_sim_seconds_total")
	return fr
}

// due reports whether event ev should fire at the boundary before pair pi
// of stage si: time-triggered events fire once the makespan reaches their
// virtual time, positional events once the stream position reaches theirs
// (Pair -1 = stage start; positions in truncated or past stages fire at
// the next boundary).
func (fr *faultRun) due(ev fault.Event, si, pi int, c *gpusim.Cluster) bool {
	if ev.Time > 0 {
		return c.Makespan() >= ev.Time
	}
	return ev.Stage < si || (ev.Stage == si && ev.Pair <= pi)
}

// fire injects every unfired due event, in plan order, at the boundary
// before pair pi of stage si — or, in a replay, the events the log recorded
// there. Only called when a fault plan is attached.
func (e *engine) fire(si, pi int) error {
	if e.rp != nil {
		return e.rp.fire(e, si, pi)
	}
	fr := e.fr
	for i := range fr.plan.Events {
		ev := fr.plan.Events[i]
		if fr.fired[i] || !fr.due(ev, si, pi, e.c) {
			continue
		}
		fr.fired[i] = true
		e.res.Recovery.FaultsInjected++
		fr.injected[ev.Kind].Inc()
		if k := e.ck; k != nil {
			k.faults = append(k.faults, faultRecord{At: len(k.log), Event: ev})
		}
		if err := e.apply(ev, si, pi); err != nil {
			return err
		}
	}
	return nil
}

// validatePlan checks p against a cluster of cfg's shape: p.Validate, and
// no mem-shrink that would leave a device no whole byte. Run's plan and a
// decoded checkpoint's fault log both go through it.
func validatePlan(p *fault.Plan, cfg gpusim.Config) error {
	if err := p.Validate(cfg.NumDevices); err != nil {
		return err
	}
	for i, ev := range p.Events {
		if ev.Kind == fault.MemShrink && shrunkBytes(ev.Factor, cfg) <= 0 {
			return fmt.Errorf("%w: event %d: mem-shrink factor %v leaves none of %d bytes", fault.ErrInvalidPlan, i, ev.Factor, cfg.MemoryBytes)
		}
	}
	return nil
}

// shrunkBytes is the capacity a mem-shrink by factor leaves a device of cfg.
func shrunkBytes(factor float64, cfg gpusim.Config) int64 {
	return int64(factor * float64(cfg.MemoryBytes))
}

// apply performs one fault event against the cluster and runs any recovery
// it requires.
func (e *engine) apply(ev fault.Event, si, pi int) error {
	switch ev.Kind {
	case fault.DeviceLoss:
		if e.c.DeviceFailed(ev.Device) {
			return nil
		}
		if err := e.c.FailDevice(ev.Device); err != nil {
			return err
		}
		e.sctx.Down = e.c.FailedMask()
		e.res.Recovery.DevicesLost++
		if e.c.AliveMask().Empty() {
			return fmt.Errorf("sched: stage %d pair %d: %w (device %d was the last survivor)",
				si, pi, ErrClusterLost, ev.Device)
		}
		return e.recoverFrom(si, pi, ev.Device)
	case fault.DeviceRestore:
		if err := e.c.RestoreDevice(ev.Device); err != nil {
			return err
		}
		e.sctx.Down = e.c.FailedMask()
		e.res.Recovery.DevicesRestored++
	case fault.LinkDegrade:
		return e.c.DegradeLink(ev.Factor)
	case fault.MemShrink:
		before := e.c.TotalStats()
		if err := e.c.SetMemoryCapacity(ev.Device, shrunkBytes(ev.Factor, e.c.Config())); err != nil {
			return err
		}
		// Shrink-forced evictions and write-backs happen outside any
		// placement; charge them to the fault bucket so decision records
		// plus FaultCharges still reconcile with device totals.
		e.res.Recovery.FaultCharges.Add(e.c.TotalStats().Sub(before))
	case fault.TransientTransfer:
		e.c.InjectTransientFailures(ev.Failures)
	}
	return nil
}

// recoverFrom repairs the run after losing device lost at the boundary
// before pair pi of stage si. The loss destroyed every tensor whose only
// copy lived on the device; any such tensor still read by the remaining
// stream must be recomputed. The closure is built backward — starting from
// the operands of every remaining pair, a reverse scan over the executed
// prefix selects exactly the pairs whose outputs are both needed and gone,
// propagating operand needs as it selects — then re-executed forward (so
// recomputed producers precede their consumers) through the normal
// placement path: the scheduler chooses among survivors, decision records
// are emitted with Recovery set, and the re-runs are charged to simulated
// time. Numeric execution is NOT repeated for re-runs (the CPU-side result
// already exists), which is why fingerprints stay bit-identical to a
// fault-free run.
func (e *engine) recoverFrom(si, pi, lost int) error {
	// Freeze the flight recorder before repairs begin: the dump shows what
	// the cluster was doing when the device died, not the recovery traffic.
	e.opts.Obs.FlightRecorder().Dump(fmt.Sprintf("device-loss device=%d stage=%d pair=%d", lost, si, pi))
	var span *obs.ActiveSpan
	if e.ob != nil {
		span = e.ob.reg.StartSpan("recovery", e.ob.runSpan)
		span.SetAttr("device", strconv.Itoa(lost))
		span.SetAttr("stage", strconv.Itoa(si))
		span.SetAttr("pair", strconv.Itoa(pi))
	}
	// Needed set, by slot: every operand of the not-yet-executed remainder.
	needed := make([]bool, len(e.w.TensorIDs()))
	for s2 := si; s2 < len(e.w.Stages); s2++ {
		pairs := e.w.Stages[s2].Pairs
		start := 0
		if s2 == si {
			start = pi
		}
		for i := range pairs[start:] {
			sa, sb, _ := pairs[start+i].Slots()
			needed[sa], needed[sb] = true, true
		}
	}
	// Reverse scan of the executed prefix: select pairs whose output is
	// needed but alive nowhere (no device copy, no host copy), and
	// propagate their operand needs so lost producers of lost producers
	// are selected too.
	type ref struct{ si, pi int }
	var selected []ref
	for s2 := si; s2 >= 0; s2-- {
		pairs := e.w.Stages[s2].Pairs
		end := len(pairs)
		if s2 == si {
			end = pi
		}
		for p2 := end - 1; p2 >= 0; p2-- {
			sa, sb, so := pairs[p2].Slots()
			if needed[so] && e.c.HoldersAt(so).Empty() && !e.c.HostHoldsAt(so) {
				selected = append(selected, ref{s2, p2})
				needed[sa], needed[sb] = true, true
			}
		}
	}
	// Re-execute in original stream order (selected is reverse-ordered).
	for i := len(selected) - 1; i >= 0; i-- {
		r := selected[i]
		if err := e.placePair(r.si, r.pi, &e.w.Stages[r.si].Pairs[r.pi], true); err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			return err
		}
	}
	e.res.Recovery.PairsRescheduled += len(selected)
	e.fr.rescheduled.Add(float64(len(selected)))
	if span != nil {
		span.SetAttr("pairs_rescheduled", strconv.Itoa(len(selected)))
		span.End()
	}
	return nil
}

// ckptRun is the engine's checkpoint layer, nil when the run takes none:
// the pair-stream digest, the run's placement and fault log, the latest
// checkpoint and, with Options.CheckpointDir, the durable file, its cadence
// and write counters.
type ckptRun struct {
	digest uint64
	// retry is the plan's resolved policy or, when a run resumed from a
	// faulted checkpoint has no plan, the checkpoint's: the log it extends
	// replays under one policy.
	retry         *fault.Retry
	log           []int
	faults        []faultRecord
	dir, path     string
	every         int
	last          *Checkpoint
	writes, bytes *obs.Counter
}

// newCkptRun refuses an Options.ResumeFrom that cannot seed a run of w on a
// cluster configured as cfg — another workload or pair stream, another
// cluster configuration, DiscardDeadInputs setting or retry policy, a stage
// past the end, or a numeric seed whose replay would diverge — and returns
// the checkpoint layer, its log continuing the resumed one. The stream is
// digested only to take or resume one.
func newCkptRun(w *workload.Workload, opts Options, cfg gpusim.Config) (*ckptRun, error) {
	on, cp := opts.Checkpoint || opts.CheckpointDir != "", opts.ResumeFrom
	if !on && cp == nil {
		return nil, nil
	}
	digest := streamDigest(w)
	var retry *fault.Retry
	if p := opts.FaultPlan; p != nil {
		r := p.RetryPolicy()
		retry = &r
	}
	switch {
	case cp == nil:
	case cp.d.Config == gpusim.Config{}:
		return nil, fmt.Errorf("sched: %w: checkpoint is the zero value", ErrNilArgument)
	case cp.d.Workload != w.Name:
		return nil, fmt.Errorf("sched: %w: it is for workload %q, resuming %q", ErrCheckpointMismatch, cp.d.Workload, w.Name)
	case cp.d.Digest != digest:
		return nil, fmt.Errorf("sched: %w: it is for another pair stream of workload %q (digest %016x, resuming %016x)",
			ErrCheckpointMismatch, w.Name, cp.d.Digest, digest)
	case cp.d.Config.NumDevices != cfg.NumDevices:
		return nil, fmt.Errorf("sched: %w: it is for %d devices, cluster has %d", ErrCheckpointMismatch, cp.d.Config.NumDevices, cfg.NumDevices)
	case cp.d.Config != cfg:
		return nil, fmt.Errorf("sched: %w: it is for cluster %+v, resuming on %+v", ErrCheckpointMismatch, cp.d.Config, cfg)
	case cp.d.DiscardDead != opts.DiscardDeadInputs:
		return nil, fmt.Errorf("sched: %w: DiscardDeadInputs %v, resuming with %v", ErrCheckpointMismatch, cp.d.DiscardDead, opts.DiscardDeadInputs)
	case cp.d.Retry != nil && retry != nil && *cp.d.Retry != *retry:
		return nil, fmt.Errorf("sched: %w: retry policy %+v, resuming with %+v", ErrCheckpointMismatch, *cp.d.Retry, *retry)
	case opts.DiscardDeadInputs && (cp.d.Retry != nil) != (retry != nil):
		// A plan keeps a dead input's host copy for recovery; without one
		// the copy goes. One log cannot replay both.
		return nil, fmt.Errorf("sched: %w: with DiscardDeadInputs, a fault plan attached %v, resuming with %v",
			ErrCheckpointMismatch, cp.d.Retry != nil, retry != nil)
	case cp.d.NextStage < 0 || cp.d.NextStage > len(w.Stages):
		return nil, fmt.Errorf("sched: %w: it resumes at stage %d of %d", ErrCheckpointMismatch, cp.d.NextStage, len(w.Stages))
	case cp.d.Numeric && opts.Numeric && cp.d.NumericSeed != opts.NumericSeed:
		return nil, fmt.Errorf("sched: %w: numeric seed %d, resuming with %d", ErrCheckpointMismatch, cp.d.NumericSeed, opts.NumericSeed)
	}
	if !on {
		return nil, nil
	}
	k := &ckptRun{digest: digest, retry: retry, dir: opts.CheckpointDir, every: opts.CheckpointEvery}
	if cp != nil {
		k.log, k.faults = slices.Clone(cp.d.Placements), slices.Clone(cp.d.Faults)
		if k.retry == nil {
			k.retry = cp.d.Retry
		}
	}
	return k, nil
}

// open takes the run's first checkpoint, at stage start. A durable run makes
// its directory first: only now, with every refusal behind it, does the run
// touch the file system, so a rejected run leaves no directory behind.
func (k *ckptRun) open(e *engine, start int) error {
	if k == nil {
		return nil
	}
	if k.dir != "" {
		if err := os.MkdirAll(k.dir, 0o755); err != nil {
			return fmt.Errorf("sched: checkpoint dir: %w", err)
		}
		k.path = CheckpointPath(k.dir, e.w.Name)
		k.writes = e.opts.Obs.Counter("micco_checkpoint_writes_total")
		k.bytes = e.opts.Obs.Counter("micco_checkpoint_bytes_written_total")
	}
	return k.snapshot(e, start)
}

// snapshot records a stage-boundary checkpoint (nextStage is the first
// stage a resume would execute) and, for a durable run, persists it at the
// configured cadence: every boundary when CheckpointEvery <= 1, otherwise
// every CheckpointEvery stages plus always the final boundary. A
// durable-write failure is a run failure — the caller asked for durability
// and did not get it. The checkpoint shares the log's prefix: the log only
// grows, and the full slice expressions make an append to the checkpoint's
// copy its own.
func (k *ckptRun) snapshot(e *engine, nextStage int) error {
	if k == nil {
		return nil
	}
	cp := &Checkpoint{checkpointData{
		Workload:    e.w.Name,
		Digest:      k.digest,
		Scheduler:   e.s.Name(),
		Config:      e.c.Config(),
		DiscardDead: e.opts.DiscardDeadInputs,
		Retry:       k.retry,
		NextStage:   nextStage,
		Overhead:    e.overhead,
		Recovery:    e.res.Recovery,
		Placements:  k.log[:len(k.log):len(k.log)],
		Faults:      k.faults[:len(k.faults):len(k.faults)],
		Numeric:     e.opts.Numeric,
		NumericSeed: e.opts.NumericSeed,
	}}
	if e.fr != nil {
		cp.d.FaultsFired = append([]bool(nil), e.fr.fired...)
	}
	k.last = cp
	if k.path == "" {
		return nil
	}
	if k.every > 1 && nextStage%k.every != 0 && nextStage != len(e.w.Stages) {
		return nil
	}
	n, err := SaveCheckpointFile(k.path, cp)
	if err != nil {
		return fmt.Errorf("sched: durable checkpoint at stage %d: %w", nextStage, err)
	}
	k.writes.Inc()
	k.bytes.Add(float64(n))
	return nil
}

// result is the latest checkpoint, nil if none was taken. On failure it is
// the last boundary before it, with the live fired-event mask so that the
// event that failed the run does not fire again on resume.
func (k *ckptRun) result(e *engine, err error) *Checkpoint {
	if k == nil || k.last == nil {
		return nil
	}
	if err != nil && e.fr != nil {
		k.last.d.FaultsFired = append([]bool(nil), e.fr.fired...)
	}
	return k.last
}

// replayLog stands in for the scheduler and the fault plan while a resumed
// run replays its checkpoint's finished stages: Assign hands back the logged
// devices in call order, and fire applies each logged fault event when as
// many placements are behind it as were when the run applied it.
type replayLog struct {
	d               *checkpointData
	next, nextFault int
}

func (r *replayLog) Name() string        { return r.d.Scheduler + " (replayed)" }
func (r *replayLog) BeginStage(*Context) {}

// Assign returns the next logged device, or -1 — which placePair refuses —
// past the end of the log.
func (r *replayLog) Assign(workload.Pair, *Context) int {
	r.next++
	if r.next > len(r.d.Placements) {
		return -1
	}
	return r.d.Placements[r.next-1]
}

func (r *replayLog) fire(e *engine, si, pi int) error {
	for r.nextFault < len(r.d.Faults) && r.d.Faults[r.nextFault].At == r.next {
		ev := r.d.Faults[r.nextFault].Event
		r.nextFault++
		if err := e.apply(ev, si, pi); err != nil {
			return err
		}
	}
	return nil
}

// replay rebuilds the state a resumed run starts from by running the
// checkpointed run's finished stages, [0, cp.NextStage()), through the
// engine's own stage loop, the log standing in for the scheduler and the
// fault plan; then it applies the events logged at the boundary itself
// (ReviveDevices). The watching and checkpoint layers are not yet attached
// and a tracing cluster records nothing, so what they report covers only the
// continuation; Options.Progress counts the replayed placements, so a
// watchdog sees a long replay move. Scheduler wall time and recovery statistics, which
// a replay cannot recompute, come from the checkpoint. A log that does not
// fit the stream — it runs out, is left over, or places an event at no pair
// boundary — is refused with ErrCheckpointMismatch.
func (e *engine) replay(cp *Checkpoint) error {
	d := &cp.d
	s, opts, tracing := e.s, e.opts, e.c.Tracing()
	r := &replayLog{d: d}
	e.s, e.rp = r, r
	e.opts.Obs = nil
	if d.Retry != nil {
		e.fr = &faultRun{retry: *d.Retry}
	}
	if tracing {
		e.c.StopTrace()
	}
	var err error
	for si := 0; si < d.NextStage && err == nil; si++ {
		err = e.stage(si)
	}
	if err == nil {
		err = r.fire(e, d.NextStage, 0)
	}
	switch {
	case r.next > len(d.Placements): // placePair refused the -1 past the end
		err = fmt.Errorf("sched: %w: its log ends after %d placements", ErrCheckpointMismatch, len(d.Placements))
	case err != nil:
	case r.next < len(d.Placements):
		err = fmt.Errorf("sched: %w: its log holds %d placements, the stages before %d make %d",
			ErrCheckpointMismatch, len(d.Placements), d.NextStage, r.next)
	case r.nextFault < len(d.Faults):
		err = fmt.Errorf("sched: %w: fault event %d, before placement %d, is at no pair boundary",
			ErrCheckpointMismatch, r.nextFault, d.Faults[r.nextFault].At)
	}
	if tracing {
		e.c.StartTrace()
	}
	e.s, e.rp, e.fr, e.opts = s, nil, nil, opts
	e.overhead, e.res.Recovery = d.Overhead, d.Recovery
	return err
}
