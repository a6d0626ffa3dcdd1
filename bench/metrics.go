package main

// metric is one row of BENCHMARK.json. The tables below are the single
// source inside the benchmark; a test checks BENCHMARK.json against them.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is how long one run measures when -seconds is not given.
const runSeconds = 10

// endToEnd is measured with tracing off, the same set on every workload.
// All of it is host time or host memory; simulated time is per-layer
// (gpusim.sim_makespan), because it repeats exactly. The bounds are what
// the reference box can resolve: see undisturbed in main.go and README.md.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"job_ms_p10", "ms", "lower", 0.25},
	{"pairs_per_s", "pairs/s", "higher", 0.25},
	{"job_cpu_ms_p10", "ms", "lower", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is measured in the traced pass. A metric that a workload does
// not exercise reads 0 there. Unit "count" and "sim_s" values repeat
// exactly for one seed and are compared exactly by -compare.
var perLayer = []metric{
	// Self times: the partition of a traced job's wall time over layers.
	{Name: "bench.job_span_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.self_ms", Unit: "ms", Better: "lower"},
	{Name: "redstar.self_ms", Unit: "ms", Better: "lower"},
	{Name: "gpusim.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "hier.self_ms", Unit: "ms", Better: "lower"},
	{Name: "report.self_ms", Unit: "ms", Better: "lower"},

	{Name: "redstar.load_deck_ms", Unit: "ms", Better: "lower"},
	{Name: "redstar.build_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "redstar.evaluate_numeric_ms", Unit: "ms", Better: "lower"},

	{Name: "wick.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "wick.graphs_expanded", Unit: "count", Better: "lower"},

	{Name: "graph.dedup_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.unique_share", Unit: "ratio", Better: "lower"},
	{Name: "graph.build_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.plan_ops", Unit: "count", Better: "lower"},

	{Name: "workload.from_stages_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "core.assign_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "core.assign_calls", Unit: "count", Better: "lower"},
	{Name: "hier.assign_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "hier.assign_calls", Unit: "count", Better: "lower"},

	{Name: "gpusim.new_cluster_ms", Unit: "ms", Better: "lower"},
	{Name: "gpusim.exec_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "gpusim.trace_overhead_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "gpusim.sim_makespan", Unit: "sim_s", Better: "lower"},
	{Name: "gpusim.evictions", Unit: "count", Better: "lower"},
	{Name: "gpusim.reuse_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "gpusim.moved_gb", Unit: "GB", Better: "lower"},
	{Name: "gpusim.d2h_gb", Unit: "GB", Better: "lower"},
	{Name: "gpusim.trace_events", Unit: "count", Better: "lower"},

	{Name: "sched.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.engine_self_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "sched.numeric_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.numeric_pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sched.checkpoint_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.checkpoint_writes", Unit: "count", Better: "lower"},
	{Name: "sched.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "sched.checkpoint_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.checkpoint_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.checkpoint_save_file_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.contract_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.kernel_gflops_exact", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.kernel_gflops_fast", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.flops_per_job", Unit: "GFLOP", Better: "lower"}, // computed from shapes
	{Name: "tensor.bytes_per_job", Unit: "GB", Better: "lower"},    // computed from shapes

	{Name: "obs.overhead_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "obs.allocs_per_pair", Unit: "1/pair", Better: "lower"},
	{Name: "obs.decisions", Unit: "count", Better: "lower"},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: "lower"},

	{Name: "obsfile.write_metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "obsfile.write_decisions_ms", Unit: "ms", Better: "lower"},
	{Name: "obsfile.write_trace_ms", Unit: "ms", Better: "lower"},
	{Name: "obsfile.bytes_written", Unit: "B", Better: "lower"},

	{Name: "report.critical_path_ms", Unit: "ms", Better: "lower"},
	{Name: "report.critical_path_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "report.segments", Unit: "count", Better: "lower"},
	{Name: "report.events", Unit: "count", Better: "lower"},
	{Name: "report.waterfall_ms", Unit: "ms", Better: "lower"},
	{Name: "report.drift_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.job_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.job_ms_iqr_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.gc_cycles_per_job", Unit: "1/job", Better: "lower"},
	{Name: "bench.speed_factor", Unit: "ratio", Better: "lower"},
}

// partitionLayers are the layers whose calls a traced job spans directly
// or through the scheduler decorator; their self times sum to the job span.
var partitionLayers = []string{"bench", "redstar", "gpusim", "sched", "core", "hier", "report"}
