// Command benchjson converts `go test -bench -benchmem` output into a
// JSON metrics file while teeing the raw text through unchanged, so it
// can sit in a pipeline:
//
//	go test -bench Contraction -benchmem -run '^$' . | benchjson -o BENCH_kernel.json
//
// The JSON document maps each benchmark name (GOMAXPROCS suffix stripped)
// to its metrics: ns/op, and when present B/op, allocs/op, and any custom
// b.ReportMetric units. With -extra, a metrics snapshot (as written by
// miccorun -metrics) is flattened into the document under the "_metrics"
// key, so one BENCH_*.json carries both benchmark timings and the run's
// observability counters. With -baseline, a previously recorded benchjson
// document is merged under the "_baseline" key, so the file shows current
// numbers next to the reference they are compared against.
//
// With -guard, benchjson runs as a checker instead of a recorder: it reads
// the named document (stdin is ignored) and fails when a guarded benchmark
// regressed — any entry matching -guard-prefix (observability-on "/obs"
// variants excepted) reporting allocs/op above -guard-max-allocs, B/op
// above -guard-max-bytes, or ns/op beyond -guard-tol times its
// "_baseline/" entry in the same document — or, with -guard-max-metric
// UNIT=MAX, reporting no UNIT metric or one above MAX, which is how a ratio
// a benchmark measures itself (b.ReportMetric) is held to a bound:
//
//	benchjson -guard BENCH_sched.json -guard-tol 2.0
//	benchjson -guard BENCH_sched.json -guard-prefix 'BenchmarkObservedRun/interleaved$' \
//	    -guard-max-metric obs/off-p10=1.35 -guard-max-allocs -1
//	benchjson -guard BENCH_kernel.json -guard-prefix BenchmarkContraction \
//	    -guard-max-allocs -1 -guard-tol 2.5
//	benchjson -guard BENCH_kernel.json -guard-prefix BenchmarkNumericRun \
//	    -guard-max-allocs -1 -guard-max-bytes 100e6
//
// The defaults guard the scheduler placement hot path
// (BenchmarkSchedulerAssign*, zero allocations). A negative
// -guard-max-allocs disables the allocation check, leaving only the
// ns/op-versus-baseline comparison — the right setting for kernel
// throughput documents whose benchmarks legitimately allocate; a negative
// -guard-max-bytes (the default) likewise disables the B/op check. Entries
// without a baseline are reported and skipped (first recording of a new
// benchmark); a guard run that finds no entries to check fails. A
// -guard-prefix ending in "$" selects the one entry of exactly that name
// ("BenchmarkObservedRun/obs$" leaves out its obs+trace sibling).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"micco"
)

func main() {
	out := flag.String("o", "", "JSON output file (default stdout, after the teed text)")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0),
		"GOMAXPROCS of the go test run; only the matching -N name suffix is stripped (at 1, go test emits no suffix and nothing is stripped)")
	extra := flag.String("extra", "", "metrics snapshot JSON (from miccorun -metrics) to merge under the _metrics key")
	baseline := flag.String("baseline", "", "prior benchjson document to merge under the _baseline key")
	guard := flag.String("guard", "", "benchjson document to check for benchmark regressions (no recording; stdin ignored)")
	guardTol := flag.Float64("guard-tol", 2.0, "with -guard, the allowed ns/op growth factor over the document's _baseline entries")
	guardPre := flag.String("guard-prefix", defaultGuardPrefix, "with -guard, the benchmark name prefix selecting the guarded entries (ending in $: the one entry of exactly that name)")
	guardAllocs := flag.Float64("guard-max-allocs", 0, "with -guard, the allowed allocs/op per guarded entry (negative disables the allocation check)")
	guardBytes := flag.Float64("guard-max-bytes", -1, "with -guard, the allowed B/op per guarded entry (negative disables the check)")
	guardMetric := flag.String("guard-max-metric", "", "with -guard, UNIT=MAX: each guarded entry must report the custom metric UNIT at or below MAX (checked instead of ns/op against _baseline)")
	flag.Parse()

	if *guard != "" {
		if err := runGuard(os.Stderr, *guard, *guardTol, *guardPre, *guardAllocs, *guardBytes, *guardMetric); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout, os.Stderr, *out, *procs, *extra, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// defaultGuardPrefix selects the entries the guard checks by default: the
// scheduler placement benchmarks (per-decision and large-cluster variants).
const defaultGuardPrefix = "BenchmarkSchedulerAssign"

// runGuard checks the recorded benchmarks matching prefix in the document
// at path: at most maxAllocs allocations and maxBytes bytes per op (a
// negative bound disables its check), and ns/op within tol times the
// document's own "_baseline/" entry — or, when maxMetric is "UNIT=MAX", a
// reported UNIT metric of at most MAX instead. Observability-on variants (names
// containing "/obs" past the prefix) are exempt — a live DecisionRecord
// legitimately allocates — unless the prefix itself names them, which is
// how a watched run is gated on purpose. Entries without a baseline are
// noted on w and skipped; zero checkable entries is itself an error (the
// guard would be vacuous).
func runGuard(w io.Writer, path string, tol float64, prefix string, maxAllocs, maxBytes float64, maxMetric string) error {
	doc, err := loadBaseline(path) // same shape; baseline-prefix pruning is harmless here
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var full map[string]map[string]float64
	if err := json.Unmarshal(raw, &full); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if tol <= 0 {
		return fmt.Errorf("guard tolerance must be positive, got %g", tol)
	}
	if prefix == "" {
		return fmt.Errorf("guard prefix must be non-empty")
	}
	var unit string
	var unitMax float64
	if maxMetric != "" {
		i := strings.LastIndexByte(maxMetric, '=')
		if i > 0 {
			unit = maxMetric[:i]
			unitMax, err = strconv.ParseFloat(maxMetric[i+1:], 64)
		}
		if i <= 0 || err != nil {
			return fmt.Errorf("guard metric bound %q is not UNIT=MAX", maxMetric)
		}
	}
	// A prefix ending in "$" names one entry exactly: "…/obs$" guards the
	// obs row and not its obs+trace sibling.
	exact, found := strings.CutSuffix(prefix, "$")
	what := prefix + "*"
	if found {
		what = exact
	}
	checked := 0
	var failures []string
	for name, m := range doc {
		if !strings.HasPrefix(name, exact) || strings.Contains(name[len(exact):], "/obs") || found && name != exact {
			continue
		}
		checked++
		if a := m["allocs/op"]; maxAllocs >= 0 && a > maxAllocs {
			failures = append(failures, fmt.Sprintf("%s: %g allocs/op, want <= %g (guarded hot path)", name, a, maxAllocs))
		}
		if b := m["B/op"]; maxBytes >= 0 && b > maxBytes {
			failures = append(failures, fmt.Sprintf("%s: %g B/op, want <= %g", name, b, maxBytes))
		}
		if unit != "" {
			if v, ok := m[unit]; !ok {
				failures = append(failures, fmt.Sprintf("%s: reports no %s", name, unit))
			} else if v > unitMax {
				failures = append(failures, fmt.Sprintf("%s: %g %s, want <= %g", name, v, unit, unitMax))
			}
			continue
		}
		base, ok := full["_baseline/"+name]
		if !ok {
			fmt.Fprintf(w, "benchjson: note: %s has no _baseline entry, ns/op unchecked\n", name)
			continue
		}
		if bn := base["ns/op"]; bn > 0 && m["ns/op"] > tol*bn {
			failures = append(failures, fmt.Sprintf("%s: %g ns/op exceeds %gx baseline %g", name, m["ns/op"], tol, bn))
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s holds no %s entries; the guard checked nothing", path, what)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "benchjson: FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) in %s", len(failures), path)
	}
	fmt.Fprintf(w, "benchjson: guard ok: %d %s entries within bounds\n", checked, what)
	return nil
}

// run tees bench output from in to tee and writes the parsed metrics as
// JSON to outPath (or to tee when outPath is empty). procs is the
// GOMAXPROCS value the benchmarks ran under, used to recognize the name
// suffix. extraPath optionally names a metrics snapshot to merge in;
// baselinePath optionally names a prior document to keep alongside — a
// missing or malformed baseline degrades to a warning on errw (recording
// fresh numbers must not fail just because no reference exists yet).
func run(in io.Reader, tee, errw io.Writer, outPath string, procs int, extraPath, baselinePath string) error {
	metrics := make(map[string]map[string]float64)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(tee, line)
		if m, name := parseLine(line, procs); m != nil {
			metrics[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(metrics) == 0 {
		return fmt.Errorf("no benchmark result lines found")
	}
	if extraPath != "" {
		flat, err := loadExtra(extraPath)
		if err != nil {
			return err
		}
		metrics["_metrics"] = flat
	}
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(errw, "benchjson: warning: baseline unusable, recording without it: %v\n", err)
		} else {
			for name, m := range base {
				metrics["_baseline/"+name] = m
			}
		}
	}
	doc, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if outPath == "" {
		_, err = tee.Write(doc)
		return err
	}
	return os.WriteFile(outPath, doc, 0o644)
}

// loadExtra reads a metrics snapshot and flattens it into one numeric map:
// counters and gauges keep their series names, each histogram contributes
// its <name>_sum and <name>_count.
func loadExtra(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap micco.MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	flat := make(map[string]float64, len(snap.Counters)+len(snap.Gauges)+2*len(snap.Histograms))
	for name, v := range snap.Counters {
		flat[name] = v
	}
	for name, v := range snap.Gauges {
		flat[name] = v
	}
	for name, h := range snap.Histograms {
		flat[name+"_sum"] = h.Sum
		flat[name+"_count"] = float64(h.Count)
	}
	return flat, nil
}

// loadBaseline reads a prior benchjson document. Entries that are already
// baseline- or metrics-prefixed are dropped so re-recording against an
// annotated document never nests baselines.
func loadBaseline(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]map[string]float64
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for name := range doc {
		if strings.HasPrefix(name, "_baseline/") || name == "_metrics" {
			delete(doc, name)
		}
	}
	return doc, nil
}

// parseLine extracts the metrics from one benchmark result line, e.g.
//
//	BenchmarkContractionKernel-4   100   14204604 ns/op   5 allocs/op
//
// returning nil for non-result lines.
func parseLine(line string, procs int) (map[string]float64, string) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return nil, ""
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return nil, "" // second field must be the iteration count
	}
	m := make(map[string]float64)
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, ""
		}
		m[f[i+1]] = v
	}
	if _, ok := m["ns/op"]; !ok {
		return nil, ""
	}
	return m, stripProcs(f[0], procs)
}

// stripProcs removes the trailing -GOMAXPROCS suffix Go appends to
// benchmark names, keeping sub-benchmark paths intact. Only the exact
// "-<procs>" suffix is removed: go test appends it solely when GOMAXPROCS
// != 1, so at procs == 1 names are kept verbatim and a sub-benchmark that
// legitimately ends in a number (e.g. BenchmarkX/dim-128) is never
// truncated into colliding with a sibling.
func stripProcs(name string, procs int) string {
	if procs <= 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}
