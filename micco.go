// Package micco is a framework for scheduling many-body correlation
// function calculations across multiple GPUs, reproducing "MICCO: An
// Enhanced Multi-GPU Scheduling Framework for Many-Body Correlation
// Functions" (Wang, Ren, Chen, Edwards — IPDPS 2022).
//
// The package exposes five layers:
//
//   - A tensor substrate: batched complex hadron-node tensors with real
//     contraction kernels and exact cost accounting (Tensor, ContractInto).
//   - A deterministic multi-GPU simulator standing in for the paper's
//     eight-MI100 node: per-device memory pools with LRU eviction, a
//     shared host link, and kernel/transfer timing (Cluster).
//   - Workload front ends: the paper's synthetic dataset generator
//     (GenerateWorkload) and a Redstar-like correlation-function pipeline
//     (Wick contraction, graph staging — BundledCorrelators, LoadDeck).
//   - Schedulers: MICCO itself (local reuse patterns, reuse bounds,
//     Algorithms 1-2) with naive/fixed/model-tuned bound settings, plus
//     the Groute-like baseline and ablation schedulers (NewSchedulerByName).
//   - The evaluation harness that regenerates every table and figure of
//     the paper (NewHarness, RunExperiment).
//
// Every name here has a user in cmd/, examples/ or README.md's code, or is
// the type of a field or signature that does (DESIGN.md §18).
//
// Quick start:
//
//	w, _ := micco.GenerateWorkload(micco.WorkloadConfig{
//	    Seed: 1, Stages: 10, VectorSize: 64, TensorDim: 384, Batch: 8,
//	    Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
//	})
//	cluster, _ := micco.NewCluster(micco.MI100(8))
//	s, _ := micco.NewSchedulerByName("micco-naive", micco.Bounds{}, nil)
//	res, _ := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{})
//	fmt.Printf("%.0f GFLOPS\n", res.GFLOPS)
package micco

import (
	"context"
	"io"

	"micco/internal/autotune"
	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/experiment"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/mlearn"
	"micco/internal/multinode"
	"micco/internal/obs"
	"micco/internal/obs/obshttp"
	"micco/internal/redstar"
	"micco/internal/report"
	"micco/internal/sched"
	"micco/internal/spectro"
	"micco/internal/supervise"
	"micco/internal/tensor"
	"micco/internal/wick"
	"micco/internal/workload"
)

// Tensor and shape types.
type (
	// Tensor is a dense batched complex tensor with real data, stored
	// split-complex: Data is a []float64 holding the Elems() real parts
	// and then the Elems() imaginary parts, each plane row-major and
	// batch-outermost. At2/Set2 (rank 2) and At3/Set3 (rank 3) read and
	// write one complex element across the two planes.
	Tensor = tensor.Tensor
	// TensorDesc is tensor identity and shape metadata.
	TensorDesc = tensor.Desc
)

// RankMeson marks batched matrices (meson systems); a deck's "rank": 3
// selects rank-3 baryon blocks.
const RankMeson = tensor.RankMeson

// Simulated cluster types.
type (
	// Cluster is the simulated multi-GPU node.
	Cluster = gpusim.Cluster
	// ClusterConfig describes the simulated hardware: one hardware profile
	// that every device of the cluster shares, as on the paper's eight
	// identical MI100s.
	ClusterConfig = gpusim.Config
	// Device is one simulated GPU.
	Device = gpusim.Device
	// DeviceStats are per-device simulation counters.
	DeviceStats = gpusim.DeviceStats
	// DevSet is a variable-width set of device IDs, the unit of the
	// cluster's constant-time residency index (Cluster.HoldersMask). Sets
	// confined to devices 0-63 live in one inline word and never touch the
	// heap; wider clusters spill into extra words transparently.
	DevSet = gpusim.DevSet
)

// Workload types.
type (
	// Workload is a staged tensor-pair contraction stream.
	Workload = workload.Workload
	// WorkloadConfig parameterizes synthetic generation.
	WorkloadConfig = workload.Config
	// Distribution selects the repeated-data selection distribution.
	Distribution = workload.Distribution
	// Pair is one hadron contraction.
	Pair = workload.Pair
	// Stage is one dependency level of independent pairs.
	Stage = workload.Stage
	// Features are the per-stage data characteristics (Table I).
	Features = workload.Features
)

// Repeated-data distributions.
const (
	// Uniform repeats tensors uniformly over previous data.
	Uniform = workload.Uniform
	// Gaussian concentrates repeats on a hot set (biased distribution).
	Gaussian = workload.Gaussian
)

// Scheduling types.
type (
	// Scheduler assigns tensor pairs to GPUs.
	Scheduler = sched.Scheduler
	// SchedContext is the scheduler-visible engine state.
	SchedContext = sched.Context
	// RunOptions controls the execution engine.
	RunOptions = sched.Options
	// Result summarizes one run.
	Result = sched.Result
	// Bounds are the three reuse bounds of Table II.
	Bounds = core.Bounds
	// BoundsPredictor produces per-stage reuse bounds.
	BoundsPredictor = core.BoundsPredictor
	// Predictor is a trained reuse-bound regression model.
	Predictor = autotune.Predictor
	// TrainingCorpus is a reuse-bound training dataset.
	TrainingCorpus = mlearn.Dataset
	// CorpusConfig controls training-corpus generation.
	CorpusConfig = autotune.CorpusConfig
	// ModelKind selects a regression model family (Table IV).
	ModelKind = autotune.ModelKind
	// ModelScore is one Table IV row.
	ModelScore = autotune.ModelScore
	// FeatureImportance is one feature's permutation importance.
	FeatureImportance = autotune.Importance
)

// ForestModel is the Random Forest family (paper Table IV), the model
// MICCO-optimal deploys.
const ForestModel = autotune.ForestModel

// Fault-injection and recovery types. A FaultPlan passed through
// RunOptions.FaultPlan is replayed deterministically into the simulator;
// the engine recovers from device loss by re-running lost intermediates
// on the survivors, retries transient transfers under the plan's
// FaultRetry policy, and (with RunOptions.Checkpoint) snapshots every
// stage boundary so an interrupted run can resume via
// RunOptions.ResumeFrom.
type (
	// FaultPlan is a deterministic fault schedule.
	FaultPlan = fault.Plan
	// FaultEvent is one fault to inject.
	FaultEvent = fault.Event
	// FaultKind classifies fault events.
	FaultKind = fault.Kind
	// FaultRetry is the transient-failure retry/backoff policy.
	FaultRetry = fault.Retry
	// Checkpoint is a resumable stage-boundary snapshot of a run. With
	// RunOptions.CheckpointDir set the engine persists it at every stage
	// boundary; LoadCheckpointFile brings it back.
	Checkpoint = sched.Checkpoint
	// RecoveryStats summarizes fault-recovery work done during a run.
	RecoveryStats = sched.RecoveryStats
)

// Fault event kinds (a JSON plan names these and the rest by string).
const (
	// FaultDeviceLoss permanently removes a device mid-run.
	FaultDeviceLoss = fault.DeviceLoss
	// FaultDeviceRestore returns a lost device to service, memory cold.
	FaultDeviceRestore = fault.DeviceRestore
	// FaultTransientTransfer makes the next Failures fetches retryable-fail.
	FaultTransientTransfer = fault.TransientTransfer
)

// Correlation-function front-end types.
type (
	// Correlator is a correlation-function specification.
	Correlator = redstar.Correlator
	// Construction is one operator construction in a correlator basis.
	Construction = redstar.Construction
	// CorrelatorBuild is a compiled correlator: plan plus workload.
	CorrelatorBuild = redstar.Build
	// Operator is an interpolating operator (hadron) with quark content.
	Operator = wick.Operator
	// Quark is one quark field.
	Quark = wick.Quark
)

// Experiment types.
type (
	// Harness runs the paper's evaluation experiments.
	Harness = experiment.Harness
	// HarnessOptions configures a harness.
	HarnessOptions = experiment.Options
	// ExperimentTable is one rendered experiment result.
	ExperimentTable = experiment.Table
)

// MI100 returns the cluster configuration calibrated to the paper's
// testbed: n MI100-class devices with a shared host link.
func MI100(n int) ClusterConfig { return gpusim.MI100(n) }

// MI100Nodes returns a multi-node topology: nodes groups of perNode
// MI100-class devices, each node with its own host link and P2P fabric,
// joined by an InfiniBand-class inter-node interconnect (ClusterConfig
// NodeSize/InterNodeBandwidth/InterNodeLatency).
func MI100Nodes(nodes, perNode int) ClusterConfig { return gpusim.MI100Nodes(nodes, perNode) }

// NewCluster builds a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return gpusim.NewCluster(cfg) }

// GenerateWorkload builds a deterministic synthetic workload.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.Generate(cfg) }

// NewMICCONaive returns the MICCO scheduler with all reuse bounds zero.
func NewMICCONaive() Scheduler { return core.NewNaive() }

// NewMICCOFixed returns the MICCO scheduler with constant reuse bounds.
func NewMICCOFixed(b Bounds) Scheduler { return core.NewFixed(b) }

// NewMICCOOptimal returns the MICCO scheduler with per-stage bounds from a
// trained predictor (the paper's MICCO-optimal). A nil p keeps every bound
// at zero, as NewMICCONaive does.
func NewMICCOOptimal(p BoundsPredictor) Scheduler { return core.NewOptimal(p) }

// NewGroute returns the earliest-available-device baseline scheduler.
func NewGroute() Scheduler { return baseline.NewGroute() }

// NewHier returns the two-level node/device scheduler for multi-node
// topologies (ClusterConfig.NodeSize): an inter-node placer shards the
// correlation graph across nodes under nodeBound, and a MICCO-style pass
// places within the chosen node under bounds b. On single-node clusters it
// degenerates to a deterministic-tie-break MICCO.
func NewHier(nodeBound int, b Bounds) Scheduler { return hier.New(nodeBound, b) }

// Run replays workload w through scheduler s on cluster c. Scheduler
// decisions replay sequentially; in numeric mode the real contractions of
// each stage then run as dependency levels of batches on a worker pool
// sized by RunOptions.Parallelism, with bit-identical results at any
// setting. ctx cancels the run promptly.
func Run(ctx context.Context, w *Workload, s Scheduler, c *Cluster, opts RunOptions) (*Result, error) {
	return sched.Run(ctx, w, s, c, opts)
}

// Speedup returns r's throughput advantage over baseline, 0 when either
// result is nil or baseline has no throughput.
func Speedup(r, baseline *Result) float64 { return sched.Speedup(r, baseline) }

// BuildCorpus sweeps reuse-bound settings over randomized workloads to
// produce a training corpus (Section IV-C). Samples are labeled on a
// CorpusConfig.Parallelism-sized worker pool; the corpus is identical at
// any setting. ctx cancels the build promptly.
func BuildCorpus(ctx context.Context, cfg CorpusConfig) (*TrainingCorpus, error) {
	return autotune.BuildCorpus(ctx, cfg)
}

// TrainPredictor fits a reuse-bound model of the given kind on corpus,
// holding out testFrac for the reported R-squared. A nil corpus returns
// an error wrapping ErrNilArgument.
func TrainPredictor(corpus *TrainingCorpus, kind ModelKind, testFrac float64, seed int64) (*Predictor, error) {
	return autotune.Train(corpus, kind, testFrac, seed)
}

// EvaluateModels scores all three regression families on corpus (Table IV).
// A nil corpus returns an error wrapping ErrNilArgument.
func EvaluateModels(corpus *TrainingCorpus, testFrac float64, seed int64) ([]ModelScore, error) {
	return autotune.EvaluateModels(corpus, testFrac, seed)
}

// A1RhoPi returns the bundled a1 -> rho pi correlator (Table VI row 1).
func A1RhoPi() *Correlator { return redstar.A1RhoPi() }

// BundledCorrelators returns the three Table VI correlators.
func BundledCorrelators() []*Correlator { return redstar.Bundled() }

// Meson builds a quark-antiquark interpolating operator.
func Meson(name, quark, antiquark string) Operator { return wick.Meson(name, quark, antiquark) }

// NewHarness returns an experiment harness. Independent sweep points fan
// across HarnessOptions.Parallelism workers; rendered tables are
// byte-identical at any setting.
func NewHarness(opts HarnessOptions) *Harness { return experiment.New(opts) }

// Sentinel errors of the execution engine, the simulator and the durable
// checkpoint codec, for errors.Is.
var (
	// ErrNilArgument marks a nil workload, scheduler, cluster, corpus or
	// other required argument.
	ErrNilArgument = sched.ErrNilArgument
	// ErrInvalidDevice marks a device index outside the cluster.
	ErrInvalidDevice = sched.ErrInvalidDevice
	// ErrOutOfMemory marks a tensor that cannot fit on a device even after
	// evicting every unpinned block.
	ErrOutOfMemory = sched.ErrOutOfMemory
	// ErrClusterLost is returned when a fault plan removes the last
	// surviving device; with RunOptions.Checkpoint the Result carries the
	// last stage-boundary Checkpoint for resumption.
	ErrClusterLost = sched.ErrClusterLost
	// ErrCheckpointCorrupt marks a durable checkpoint that failed
	// structural validation: bad magic, truncation, CRC mismatch, or a
	// payload that does not decode to a valid snapshot.
	ErrCheckpointCorrupt = sched.ErrCheckpointCorrupt
	// ErrCheckpointVersion marks a durable checkpoint written by a format
	// version this build does not understand.
	ErrCheckpointVersion = sched.ErrCheckpointVersion
)

// Durability and supervision types (DESIGN.md §15).
type (
	// RunProgress is the monotone pair-completion counter external
	// watchdogs poll (RunOptions.Progress).
	RunProgress = sched.Progress
	// SuperviseConfig parameterizes a supervised run.
	SuperviseConfig = supervise.Config
	// SuperviseStats summarizes what the supervisor did.
	SuperviseStats = supervise.Stats
)

// LoadCheckpointFile reads and validates a durable checkpoint from path.
// Corrupted or truncated input returns an error wrapping
// ErrCheckpointCorrupt, an unknown format version one wrapping
// ErrCheckpointVersion; it never panics.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	return sched.LoadCheckpointFile(path)
}

// Supervise runs a workload under the self-healing supervisor: retries
// checkpoint-bearing failures (cluster loss, contained worker panics,
// watchdog-detected stalls) from the last checkpoint with capped
// exponential backoff. See SuperviseConfig for the policy knobs.
func Supervise(ctx context.Context, cfg SuperviseConfig) (*Result, SuperviseStats, error) {
	return supervise.Run(ctx, cfg)
}

// LoadFaultPlan parses a JSON fault plan; unknown fields are rejected.
func LoadFaultPlan(r io.Reader) (*FaultPlan, error) { return fault.Load(r) }

// SaveFaultPlan serializes a fault plan as indented JSON.
func SaveFaultPlan(w io.Writer, p *FaultPlan) error { return fault.Save(w, p) }

// ExperimentIDs lists the runnable experiments in paper order.
func ExperimentIDs() []string { return experiment.IDs() }

// BatchOp is one contraction of a stage batch (ContractBatch).
type BatchOp = tensor.BatchOp

// ContractInto performs one hadron contraction writing into dst, reusing
// dst's storage when its capacity suffices; dst may alias either operand.
func ContractInto(dst, a, b *Tensor, outID uint64, workers int) error {
	return tensor.ContractInto(dst, a, b, outID, workers)
}

// ContractBatch executes all contractions of an independent stage as one
// batch: every (op, group) product is one work item on a worker pool that
// lives for the call, multiplied exactly as ContractInto does it, so the
// result is bit-identical to running ContractInto per op. Every op is
// validated before any destination is sized. Ops must be mutually
// independent: no destination may alias another op's operand or
// destination (it may alias its own).
func ContractBatch(ops []BatchOp, workers int) error {
	return tensor.ContractBatch(ops, workers)
}

// KernelFeatures describes the detected CPU vector features and the
// kernel tier dispatch resolved for this process, including any
// MICCO_KERNEL override — reported as ignored when it names no tier
// (scalar, avx2, avx512).
func KernelFeatures() string { return tensor.KernelInfo() }

// Trace types (simulator event recording).
type (
	// TraceEvent is one recorded simulator operation: 48 pointer-free
	// bytes. Device is an int32; a fault event's argument (a link factor's
	// bits, a capacity, a count) sits in Bytes, and Note renders it.
	TraceEvent = obs.Event
	// TraceEventKind classifies trace events.
	TraceEventKind = obs.EventKind
)

// Observability types (metrics registry, spans, decision records). Attach a
// registry through RunOptions.Obs; a nil registry costs nothing — every
// instrument call on the hot path degrades to a no-op without allocating.
type (
	// MetricsRegistry collects counters, gauges, histograms, spans, and
	// scheduler decision records for one or more runs.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-serializable export of a
	// registry (also returned as Result.Metrics when RunOptions.Obs is set).
	MetricsSnapshot = obs.Snapshot
	// DecisionRecord explains one placement: pattern, gating bound,
	// candidate scores, policy, and predicted vs actual transfer bytes.
	// 128 bytes: counts and indices are int32, the pattern and the policy
	// one-byte codes written by name.
	DecisionRecord = obs.DecisionRecord
	// DecisionPolicy is a DecisionRecord's final-selection rule; the zero
	// value names none.
	DecisionPolicy = obs.Policy
	// CandidateScore is one device the scheduler considered, with its
	// primary selection score (lower wins).
	CandidateScore = obs.CandidateScore
	// Span is one finished timing span (run and stage phases).
	Span = obs.Span
)

// MICCO's two decision policies, as DecisionRecord.Policy stores them and
// the decision log writes them ("compute-centric", "memory-eviction").
const (
	PolicyComputeCentric = obs.PolicyComputeCentric
	PolicyMemoryEviction = obs.PolicyMemoryEviction
)

// NewMetricsRegistry returns an empty observability registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// WritePrometheus writes a registry snapshot in the Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, r *MetricsRegistry) error { return r.WritePrometheus(w) }

// WriteDecisions writes decision records as newline-delimited JSON.
func WriteDecisions(w io.Writer, recs []DecisionRecord) error {
	return obs.WriteDecisionsNDJSON(w, recs)
}

// ReadDecisions parses a WriteDecisions stream back into decision records.
func ReadDecisions(r io.Reader) ([]DecisionRecord, error) {
	return obs.ReadDecisionsNDJSON(r)
}

// LoadMetricsSnapshot parses a metrics snapshot JSON file (as written by
// miccorun -metrics or miccobench -metrics).
func LoadMetricsSnapshot(r io.Reader) (*MetricsSnapshot, error) {
	return report.LoadSnapshot(r)
}

// Flight-recorder types (DESIGN.md §13). A FlightRecorder attached to a
// MetricsRegistry retains the last 8192 simulator events in one bounded
// lock-cheap ring, and its snapshots add the registry's own last 2048
// decision records and 512 completed spans; recording allocates nothing, and
// with no recorder attached the cost is one atomic load per event. The
// execution engine dumps the recorder automatically on device-loss
// recovery and cluster loss.
type (
	// FlightRecorder is the always-on bounded post-mortem buffer.
	FlightRecorder = obs.FlightRecorder
	// FlightSnapshot is a point-in-time copy of the recorder's tail; its
	// events are TraceEvents, as the simulator emitted them.
	FlightSnapshot = obs.FlightSnapshot
)

// NewFlightRecorder builds a flight recorder; attach it with
// MetricsRegistry.SetFlightRecorder.
func NewFlightRecorder() *FlightRecorder { return obs.NewFlightRecorder() }

// ObsServer is a running observability HTTP server (ServeObs).
type ObsServer = obshttp.Server

// ServeObs starts the live observability server on addr, exposing reg:
// /metrics (Prometheus text), /metrics.json, /decisions (NDJSON), /trace
// (Chrome trace of the flight recorder's recent activity), /flight,
// /healthz and /debug/pprof/*. It returns once the listener is bound;
// close with ObsServer.Close or ObsServer.Shutdown. miccorun exposes it
// behind -serve.
func ServeObs(addr string, reg *MetricsRegistry) (*ObsServer, error) {
	return obshttp.Serve(addr, reg)
}

// Post-run analysis types (internal/report; DESIGN.md §13). BuildReport
// turns a run's trace, decisions and metrics snapshot into the critical
// path, stage waterfall and prediction-drift analyses rendered by
// cmd/miccoreport.
type (
	// ReportInput is the raw material of a report.
	ReportInput = report.Input
	// RunReport is a complete post-run analysis document.
	RunReport = report.Report
	// CriticalPath is the blame-annotated chain gating the makespan.
	CriticalPath = report.CriticalPath
	// CriticalPathSegment is one link of the critical path.
	CriticalPathSegment = report.Segment
	// StageUtilizationRow is one stage of the utilization waterfall.
	StageUtilizationRow = report.StageRow
	// DriftSummary aggregates predicted-vs-actual transfer drift.
	DriftSummary = report.Drift
	// MetricsDiff is a regression comparison of two metrics snapshots.
	MetricsDiff = report.Diff
)

// BuildReport assembles a post-run analysis from in.
func BuildReport(in ReportInput) *RunReport { return report.Build(in) }

// DiffMetricsSnapshots compares two metrics snapshots series by series.
func DiffMetricsSnapshots(old, new *MetricsSnapshot) *MetricsDiff {
	return report.DiffSnapshots(old, new)
}

// LoadPredictor deserializes a predictor saved with Predictor.Save.
func LoadPredictor(r io.Reader) (*Predictor, error) { return autotune.LoadPredictor(r) }

// Multi-node extension types (the paper's stated future work).
type (
	// MultiNodeConfig describes a simulated multi-node system.
	MultiNodeConfig = multinode.Config
	// MultiNodeCluster is a set of simulated nodes behind a shared fabric.
	MultiNodeCluster = multinode.Cluster
	// MultiNodeResult summarizes a multi-node run.
	MultiNodeResult = multinode.Result
)

// DefaultMultiNodeConfig returns n nodes of g MI100-class GPUs behind an
// InfiniBand-class fabric.
func DefaultMultiNodeConfig(n, g int) MultiNodeConfig { return multinode.DefaultConfig(n, g) }

// NewMultiNodeCluster builds a multi-node cluster.
func NewMultiNodeCluster(cfg MultiNodeConfig) (*MultiNodeCluster, error) {
	return multinode.NewCluster(cfg)
}

// RunMultiNode executes a workload hierarchically across nodes: a
// node-level reuse-aware policy picks the node, a per-node MICCO instance
// picks the device, and missing operands stage over the shared fabric.
// ctx cancels the run promptly.
func RunMultiNode(ctx context.Context, w *Workload, mc *MultiNodeCluster) (*MultiNodeResult, error) {
	return multinode.Run(ctx, w, mc)
}

// CorrelatorSeries is a correlator time series C(t), the input of the
// spectroscopy analyses below.
type CorrelatorSeries = spectro.Series

// EffectiveMass returns the effective-mass curve of a correlator series.
func EffectiveMass(s CorrelatorSeries) map[int]float64 { return spectro.EffectiveMass(s) }

// PlateauFit averages an effective-mass curve over [t0, t1].
func PlateauFit(meff map[int]float64, t0, t1 int) (mean, stddev float64, err error) {
	return spectro.Plateau(meff, t0, t1)
}

// FitCorrelator fits |C(t)| to A*exp(-m*t), returning amplitude and mass.
func FitCorrelator(s CorrelatorSeries) (amp, mass float64, err error) {
	return spectro.FitExponential(s)
}

// SyntheticCorrelator builds a single-state correlator for validation.
func SyntheticCorrelator(amp, mass float64, t0, t1 int) CorrelatorSeries {
	return spectro.Synthetic(amp, mass, t0, t1)
}

// LoadDeck parses a JSON correlator deck (the reproduction's analog of
// Redstar's XML input decks) into a validated Correlator.
func LoadDeck(r io.Reader) (*Correlator, error) { return redstar.LoadDeck(r) }
