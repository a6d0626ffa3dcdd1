GO ?= go

.PHONY: build test vet fmt race check bench benchsmoke benchguard soak benchtest ladder

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet covers the root module and bench/, the ladder driver's own module,
# which the root ./... never reaches.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# fmt fails when any file, bench/ included, is not gofmt-formatted, and
# names the files.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "not gofmt-formatted:"; gofmt -l .; exit 1; }

# The concurrent engine, corpus builder and experiment harness all run
# under the race detector; race is part of check and must stay clean.
race:
	$(GO) test -race ./...

check: vet fmt test race benchsmoke benchguard benchtest

# benchtest runs the tests of the end-to-end ladder's driver. bench/ is its
# own Go module (it replaces micco with the checkout around it), so the
# root `go test ./...` never reaches it.
benchtest:
	$(GO) test -C bench ./...

# ladder runs the end-to-end benchmark of BENCHMARK.json, one workload
# after another, the way the recorded comparison runs it: ten timed
# seconds each at seed 2022, tracing off. Each run prints its six
# end-to-end metrics and exits non-zero if any job's outcome differs from
# bench/golden.json. For the per-layer budget of one workload run
# `bash bench/run.sh --workload W --seed 2022 --seconds 10 --trace 1`.
LADDER_WORKLOADS = deck_numeric sched_scale observed_run deck_plan report_build
ladder:
	@for w in $(LADDER_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 2022 --seconds 10 --trace 0 || exit 1; \
	done

# benchsmoke compiles and runs every benchmark once — including the
# scheduler-overhead suite in internal/sched — so check catches bit-rot
# in benchmark code without paying for real measurements.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchguard checks the recorded performance numbers. Scheduler: any
# BenchmarkSchedulerAssign* entry in BENCH_sched.json (obs-on variants
# excepted) must report 0 allocs/op and stay within 2x the _baseline/
# ns/op merged into the same document — including the "/cold" rows, the
# only ones in which MICCO's step III and its rng tie-break run. The two
# BenchmarkRunScheduleOnly/*/devs=4096 rows — one half each of a
# sched_scale ladder job on a cluster that has run before — may not be
# slower than their baseline ns/op (1.0x), which is the same rows run in
# the recording session on the commit before tensors were numbered and the
# simulator's 4097 maps became one record array and one block slab
# (recorded: 38.6 -> 23.8 ms flat MICCO, 27.2 -> 15.4 ms hier), and
# allocate at most 2 MB (flat MICCO) and 1 MB (hier) per run, twice what
# the engine's own per-run slices come to: the simulator's share is zero,
# and was 20 MB of
# spill words. The watched MICCO/devs=4096/obs=on row, one registry's
# worth of decision records at that width, may allocate at most 32 MB per
# run (13.6 MB recorded with 128-byte records, 14.2 MB with 168-byte ones;
# 370 MB when every record listed every eligible device) nor be slower
# than the same row on the commit before records kept at most 64
# candidates (31.9 against 213 ms). The three BenchmarkObservedRun rows
# are one observed_run ladder job each — unwatched, with a registry, with
# the registry and the simulator trace. Recorded: off 4.48 ms, obs
# 6.63 ms, obs+trace 6.89 ms; the baseline rows are the runs of the
# commit before events were written in place and pointer-free and the
# decision log was handed out: 6.82 / 11.3 / 11.3 ms. obs+trace must not
# be slower than its baseline (1.0x) nor allocate over 5 MB per job
# (4.22 MB: 128-byte decision records plus one exact-size log of
# pointer-free 48-byte events; 5.36 MB at 168 and 64 bytes, 5.72 MB with
# a string in every event, 18.2 MB when every run re-grew the log from
# nothing); off stays
# within 2x its baseline and under 0.1 MB per job, so
# the watching path cannot leak cost into a run nobody watches. Kernels: every BenchmarkContraction*
# entry in BENCH_kernel.json must stay within 2.5x its baseline ns/op
# (allocation check off — kernel benchmarks legitimately allocate; the
# wider tolerance absorbs machine throttling on shared runners). The
# baseline is the 1x8 AVX2 row kernel's run, so the pooled kernel is
# held to 0.8x of it besides: under 1.25x faster, the 4x16 block kernel is
# not what ran (re-recording on a machine without AVX-512 trips this).
# BenchmarkNumericRun, one deck_numeric job, may allocate at most 0.1 MB
# per job: 62 KB recorded with the ready-list executor (the tree after
# commit 6448194, which read 80 KB in the same session: the ready list is
# built once per run and nothing copies the pair stream), 82 KB with a closed run
# first handing its dead buffers to the next run, 72 MB when every run
# allocated its working set, 162 MB when every pair of a level drew a
# fresh destination. The row is recorded
# at -benchtime 20x and is a warm job: the testing package runs one
# iteration before the timed twenty, in the same process, and that one
# fills the pools (a cold iteration inside the twenty would add 3.6 MB to
# B/op). Report: the baseline rows of
# BENCH_report.json are the same benchmarks run, in the recording session,
# on the commit before the walk noted its steps and made its segments once,
# the shares became indexed tallies, the segment encoder reused a boundary's
# digits and the trace writer stopped going through fmt. Every
# BenchmarkCriticalPath* entry must not be slower than that walk (1.0x of
# it is about 2.5x today's row) and may make at most 64 allocations however
# long the path (21 recorded; 17 753 at 20k events when every segment made
# a key string); that the walk is linear is read off the recorded ns/event
# column, which stays flat from events=5k to events=80k: ordering a
# recorded trace is an insertion pass over a permutation of its events
# (the comparison sort of 24-byte keys it replaced was most of the walk),
# and the walk after it is linear work.
# The events=20k/procs=1 and /procs=2 rows are the same walk at
# GOMAXPROCS 1 and 2: recorded, not gated, so that what a second core
# gives a walk that runs on one (the collector's share) is on file.
# BenchmarkReportRenderJSON must not be slower than the encoder that
# formatted every boundary twice. BenchmarkReportRenderJSONToBuffer renders
# the same report into a fresh bytes.Buffer every op, as a caller that
# keeps the document does, and may allocate at most 1.15x the document's
# 2 745 717 bytes (its doc-B metric) per op: 1.03x recorded with the
# destination grown once to a bound of the document, 3.07x when a 4 KB
# bufio stream made the buffer regrow by doubling (a change to the report
# fixture moves doc-B, and the bound with it). BenchmarkWriteChromeTrace,
# the trace artifact of one observed_run job, must stay under half the fmt
# writer's time (a seventh, recorded). Front end: every BenchmarkBuildPlan*
# and BenchmarkExpand* entry in BENCH_frontend.json must stay within 2x its
# baseline ns/op — the baseline being the per-call enumeration and string
# signatures they replaced — and a warm Expand, which stamps a template it
# already holds, may allocate at most 8 objects however many graphs it
# returns. BenchmarkBuildPlan/f0d4_t64, the front end of one deck_plan
# job, may allocate at most 2.64 MB per build, its recording plus 10%:
# 2.40 MB recorded with the deck streamed one sink time at a time into a
# planner whose stage-major pairs are the workload, 4.99 MB when the whole
# deck's graphs existed at once and the plan was copied into pairs,
# 6.13 MB when the plan's finals, the planner's memo key, the block table
# and FromStages' slots still went through maps.
# BenchmarkBuildPlan/f0d4_m6_t256, the same deck at six momenta and 256
# sink times (104 450 pairs), has no baseline row; its B/pair is held to
# 1.1x f0d4_t64's recorded 305.1, so that the front end's bytes stay
# linear in the deck (289.5 recorded; 678 before the stream, against 633
# at 7 874 pairs). Last, watching is held to the unwatched job:
# BenchmarkObservedRun/interleaved runs the three jobs round-robin in one
# process and reports the ratios of their p10 job times, which
# -guard-max-metric holds to obs/off-p10 <= 1.35 and obs+trace/off-p10
# <= 1.5 (ROADMAP 4(a)'s bar is 1.25x, not reached). Recorded: 1.336 and
# 1.408. Separate rows drift apart by up to 30% on a shared machine, so
# their ns/op ratio says little; side by side, one run's ratio moves by
# about 0.03, so the obs gate sits close to what is measured. These gates
# run after every other gate so that those are still checked.
# Re-run `make bench` to refresh the recordings before the guard.
benchguard:
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 2.0
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 1.0 \
		-guard-prefix BenchmarkRunScheduleOnly/MICCO/devs=4096 -guard-max-allocs -1 -guard-max-bytes 2e6
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 1.0 \
		-guard-prefix BenchmarkRunScheduleOnly/Hier/devs=4096 -guard-max-allocs -1 -guard-max-bytes 1e6
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 1.0 \
		-guard-prefix BenchmarkObservedRun/obs+trace -guard-max-allocs -1 -guard-max-bytes 5e6
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 2.0 \
		-guard-prefix BenchmarkObservedRun/off -guard-max-allocs -1 -guard-max-bytes 0.1e6
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 1.0 \
		-guard-prefix BenchmarkRunScheduleOnly/MICCO/devs=4096/obs=on -guard-max-allocs -1 -guard-max-bytes 32e6
	$(GO) run ./cmd/benchjson -guard BENCH_kernel.json -guard-tol 2.5 \
		-guard-prefix BenchmarkContraction -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_kernel.json -guard-tol 0.8 \
		-guard-prefix BenchmarkContractionKernelInto -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_kernel.json -guard-tol 2.5 \
		-guard-prefix BenchmarkNumericRun -guard-max-allocs -1 -guard-max-bytes 0.1e6
	$(GO) run ./cmd/benchjson -guard BENCH_report.json -guard-tol 1.0 \
		-guard-prefix BenchmarkCriticalPath -guard-max-allocs 64
	$(GO) run ./cmd/benchjson -guard BENCH_report.json -guard-tol 1.0 \
		-guard-prefix BenchmarkReportRenderJSON -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_report.json \
		-guard-prefix 'BenchmarkReportRenderJSONToBuffer$$' -guard-max-allocs -1 -guard-max-bytes 3157574
	$(GO) run ./cmd/benchjson -guard BENCH_report.json -guard-tol 0.5 \
		-guard-prefix BenchmarkWriteChromeTrace -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_frontend.json -guard-tol 2.0 \
		-guard-prefix Benchmark -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_frontend.json -guard-tol 2.0 \
		-guard-prefix BenchmarkExpand/warm -guard-max-allocs 8
	$(GO) run ./cmd/benchjson -guard BENCH_frontend.json -guard-tol 2.0 \
		-guard-prefix 'BenchmarkBuildPlan/f0d4_t64$$' -guard-max-allocs -1 -guard-max-bytes 2.64e6
	$(GO) run ./cmd/benchjson -guard BENCH_frontend.json -guard-prefix 'BenchmarkBuildPlan/f0d4_m6_t256$$' \
		-guard-max-metric B/pair=335.6 -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-prefix 'BenchmarkObservedRun/interleaved$$' \
		-guard-max-metric obs/off-p10=1.35 -guard-max-allocs -1
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-prefix 'BenchmarkObservedRun/interleaved$$' \
		-guard-max-metric obs+trace/off-p10=1.5 -guard-max-allocs -1

# soak runs the chaos harness: seeded random fault plans × random
# kill-points (process death simulated by dropping all in-memory state and
# resuming from the durable checkpoint file alone) × every registered
# scheduler × numeric pool widths 1 and 4, each iteration asserting the
# bit-identical fingerprint of the fault-free run and probing the
# checkpoint file with seeded corruption.
# MICCO_SOAK_SEEDS scales the run (default 3 seeds, a few seconds;
# CI uses 8).
soak:
	$(GO) test -count=1 -v -run TestChaosSoak ./internal/chaos

# bench measures the contraction-kernel component benchmarks — a stage
# pairwise, and as one batch of (op, group) work items through a per-call
# pipeline and through a persistent one (the rows named "fused", after the
# shared-panel planner they once timed) — and one whole numeric job (the
# ladder's deck_numeric, at a fixed twenty iterations) with allocation
# stats and records them as
# BENCH_kernel.json with the baseline merged in (via cmd/benchjson, which
# tees the raw output through) — the kernel and job rows run on the commit
# before the AVX-512 block kernel existed, the stage rows on
# the commit before ContractBatch became one run of a pipeline — then the
# scheduler-overhead suite — per-placement cost, schedule-only runs with
# obs on/off and at the ladder's 4096 devices, the ladder's observed_run
# job unwatched, with a registry and with registry plus trace — as three
# rows, and once more interleaved round by round in one process for 60
# rounds, which is what the watching ratios are read from — and whole
# numeric runs at pool widths 1, 2 and 8 — as BENCH_sched.json with the
# pre-change baseline numbers merged in for comparison (the numeric runs'
# from the commit that still had the coordinator goroutine), then the
# report layer — the critical
# path at 5k/20k/80k events and on the nested shape, the JSON rendering
# to a writer that keeps nothing and into a fresh buffer, the 20k walk
# again at GOMAXPROCS 1 and 2, and the Chrome
# trace of one observed_run job — as BENCH_report.json against the
# numbers of the walk, the encoder and the fmt trace writer they replaced
# (the fresh-buffer row has no baseline; its gate is its doc-B), then the front end — BuildPlan on the three
# Table VI correlators, f0d4 at the ladder's 64 time slices and f0d4 at
# six momenta and 256 time slices (104 450 pairs, no baseline row), every
# BuildPlan row with its ns/pair and B/pair, and one Expand call cold and
# warm — as BENCH_frontend.json against the same benchmark file run on the
# commit before expansion was templated.
bench:
	{ $(GO) test -run '^$$' -bench 'Contraction' -benchmem .; \
	  $(GO) test -run '^$$' -bench 'NumericRun' -benchtime 20x -benchmem .; } \
		| $(GO) run ./cmd/benchjson -baseline BENCH_kernel_baseline.json -o BENCH_kernel.json
	{ $(GO) test -run '^$$' -bench 'SchedulerAssign|RunScheduleOnly|NumericPipeline|ObservedRun' -skip 'ObservedRun/interleaved' -benchmem ./internal/sched; \
	  $(GO) test -run '^$$' -bench 'ObservedRun/interleaved' -benchtime 60x ./internal/sched; } \
		| $(GO) run ./cmd/benchjson -baseline BENCH_sched_baseline.json -o BENCH_sched.json
	$(GO) test -run '^$$' -bench 'CriticalPath|ReportRenderJSON|WriteChromeTrace' -benchmem ./internal/report \
		| $(GO) run ./cmd/benchjson -baseline BENCH_report_baseline.json -o BENCH_report.json
	$(GO) test -run '^$$' -bench 'BuildPlan|Expand' -benchmem ./internal/redstar ./internal/wick \
		| $(GO) run ./cmd/benchjson -baseline BENCH_frontend_baseline.json -o BENCH_frontend.json
