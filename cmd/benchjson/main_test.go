package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: micco
cpu: some CPU
BenchmarkContractionKernel-4        	     100	  14204604 ns/op	 1048600 B/op	       5 allocs/op
BenchmarkContractionKernelInto-4    	     355	   3356826 ns/op	      96 B/op	       2 allocs/op
BenchmarkAblationPeerFetch/PeerFetch-4 	      12	  98765432 ns/op	       421.5 simGFLOPS
PASS
ok  	micco	4.2s
`

func TestRunParsesAndTees(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var tee strings.Builder
	if err := run(strings.NewReader(sample), &tee, io.Discard, out, 4, ""); err != nil {
		t.Fatal(err)
	}
	if tee.String() != sample {
		t.Error("teed output does not match input")
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]float64
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	k := doc["BenchmarkContractionKernel"]
	if k["ns/op"] != 14204604 || k["allocs/op"] != 5 || k["B/op"] != 1048600 {
		t.Errorf("kernel metrics = %v", k)
	}
	if doc["BenchmarkContractionKernelInto"]["allocs/op"] != 2 {
		t.Errorf("into metrics = %v", doc["BenchmarkContractionKernelInto"])
	}
	sub := doc["BenchmarkAblationPeerFetch/PeerFetch"]
	if sub["simGFLOPS"] != 421.5 {
		t.Errorf("custom metric = %v", sub)
	}
}

func TestRunJSONToStdout(t *testing.T) {
	var tee strings.Builder
	if err := run(strings.NewReader(sample), &tee, io.Discard, "", 4, ""); err != nil {
		t.Fatal(err)
	}
	// The JSON document follows the teed text.
	rest := strings.TrimPrefix(tee.String(), sample)
	var doc map[string]map[string]float64
	if err := json.Unmarshal([]byte(rest), &doc); err != nil {
		t.Fatalf("stdout JSON invalid: %v", err)
	}
	if len(doc) != 3 {
		t.Errorf("parsed %d benchmarks, want 3", len(doc))
	}
}

func TestRunMergesBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// A prior document with a plain entry plus entries the merge must drop:
	// an old baseline annotation and a metrics snapshot.
	prior := `{
  "BenchmarkContractionKernel": {"ns/op": 99, "allocs/op": 7},
  "_baseline/BenchmarkContractionKernel": {"ns/op": 200},
  "_metrics": {"micco_counter": 3}
}`
	if err := os.WriteFile(base, []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	var tee strings.Builder
	if err := run(strings.NewReader(sample), &tee, io.Discard, out, 4, base); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]float64
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["BenchmarkContractionKernel"]["ns/op"] != 14204604 {
		t.Error("current metrics missing or overwritten by baseline")
	}
	got := doc["_baseline/BenchmarkContractionKernel"]
	if got["ns/op"] != 99 || got["allocs/op"] != 7 {
		t.Errorf("baseline entry = %v, want ns/op 99, allocs/op 7", got)
	}
	for name := range doc {
		if name == "_baseline/_metrics" || strings.HasPrefix(name, "_baseline/_baseline/") {
			t.Errorf("merge kept non-benchmark baseline entry %q", name)
		}
	}

}

// TestRunBaselineDegradesGracefully: a missing or malformed -baseline file
// must warn and record the fresh numbers without the _baseline annotation,
// not abort — the first recording of a benchmark has no reference yet.
func TestRunBaselineDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	check := func(t *testing.T, baseline, wantWarn string) {
		out := filepath.Join(dir, "bench.json")
		var tee, warn strings.Builder
		if err := run(strings.NewReader(sample), &tee, &warn, out, 4, baseline); err != nil {
			t.Fatalf("unusable baseline should not fail the run: %v", err)
		}
		if !strings.Contains(warn.String(), "warning") || !strings.Contains(warn.String(), wantWarn) {
			t.Errorf("warning = %q, want mention of %q", warn.String(), wantWarn)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]map[string]float64
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["BenchmarkContractionKernel"]["ns/op"] != 14204604 {
			t.Error("fresh metrics missing despite unusable baseline")
		}
		for name := range doc {
			if strings.HasPrefix(name, "_baseline/") {
				t.Errorf("unusable baseline still produced entry %q", name)
			}
		}
	}
	t.Run("missing", func(t *testing.T) {
		check(t, filepath.Join(dir, "missing.json"), "missing.json")
	})
	t.Run("malformed", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, bad, "bad.json")
	})
}

// writeGuardDoc writes a benchjson document for guard tests and returns
// its path.
func writeGuardDoc(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGuardPasses(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkSchedulerAssign/MICCO(0,2,0)": {"ns/op": 150, "allocs/op": 0},
  "BenchmarkSchedulerAssign/MICCO(0,2,0)/obs": {"ns/op": 400, "allocs/op": 3},
  "BenchmarkSchedulerAssignLarge/Hier/devs=4096": {"ns/op": 650, "allocs/op": 0},
  "BenchmarkRunScheduleOnly/MICCO/obs=off": {"ns/op": 9e9, "allocs/op": 12345},
  "_baseline/BenchmarkSchedulerAssign/MICCO(0,2,0)": {"ns/op": 140},
  "_baseline/BenchmarkSchedulerAssignLarge/Hier/devs=4096": {"ns/op": 600}
}`)
	var w strings.Builder
	if err := runGuard(&w, path, 2.0, defaultGuardPrefix, 0, -1, ""); err != nil {
		t.Fatalf("clean document failed the guard: %v\n%s", err, w.String())
	}
	// The /obs variant (allocates by design) and non-Assign benchmarks must
	// not have been counted among the checked entries.
	if !strings.Contains(w.String(), "2 BenchmarkSchedulerAssign* entries") {
		t.Errorf("guard summary = %q, want 2 entries checked", w.String())
	}
}

// TestGuardPrefixNamingObsVariant: a prefix that itself names an "/obs"
// variant gates it (time against baseline and B/op); its siblings stay out.
func TestGuardPrefixNamingObsVariant(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkObservedRun/obs": {"ns/op": 9e9, "B/op": 9e9},
  "BenchmarkObservedRun/obs+trace": {"ns/op": 13e6, "B/op": 5.7e6},
  "_baseline/BenchmarkObservedRun/obs+trace": {"ns/op": 24e6}
}`)
	var w strings.Builder
	if err := runGuard(&w, path, 1.0, "BenchmarkObservedRun/obs+trace", -1, 10e6, ""); err != nil {
		t.Fatalf("healthy watched run failed the guard: %v\n%s", err, w.String())
	}
	if !strings.Contains(w.String(), "1 BenchmarkObservedRun/obs+trace* entries") {
		t.Errorf("guard summary = %q, want 1 entry checked", w.String())
	}
	if err := runGuard(&w, path, 1.0, "BenchmarkObservedRun/obs+trace", -1, 5e6, ""); err == nil {
		t.Error("5.7 MB/op passed a 5 MB bound")
	}
	if err := runGuard(&w, path, 0.5, "BenchmarkObservedRun/obs+trace", -1, -1, ""); err == nil {
		t.Error("0.54x of baseline passed a 0.5x guard")
	}
}

// TestGuardMaxMetric: -guard-max-metric holds a custom metric each guarded
// entry reports to a maximum instead of checking ns/op against a baseline,
// names the metric when it fails, and fails an entry that does not report
// it; a prefix ending in $ guards one entry alone.
func TestGuardMaxMetric(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkObservedRun/interleaved": {"ns/op": 25e6, "obs/off-p10": 1.3, "obs+trace/off-p10": 1.55},
  "BenchmarkObservedRun/interleaved-other": {"ns/op": 25e6},
  "_baseline/BenchmarkObservedRun/interleaved": {"ns/op": 1e6}
}`)
	const row = "BenchmarkObservedRun/interleaved$"
	var w strings.Builder
	if err := runGuard(&w, path, 1.0, row, -1, -1, "obs/off-p10=1.35"); err != nil {
		t.Fatalf("1.3 failed a 1.35 bound (the 25x baseline must not count): %v\n%s", err, w.String())
	}
	if !strings.Contains(w.String(), "1 BenchmarkObservedRun/interleaved entries") {
		t.Errorf("guard summary = %q, want 1 entry checked", w.String())
	}
	w.Reset()
	if err := runGuard(&w, path, 1.0, row, -1, -1, "obs+trace/off-p10=1.5"); err == nil {
		t.Fatal("1.55 passed a 1.5 bound")
	}
	if !strings.Contains(w.String(), "1.55 obs+trace/off-p10, want <= 1.5") {
		t.Errorf("failure output = %q, want the metric and its bound", w.String())
	}
	w.Reset()
	if err := runGuard(&w, path, 1.0, "BenchmarkObservedRun/interleaved", -1, -1, "obs/off-p10=1.35"); err == nil ||
		!strings.Contains(w.String(), "interleaved-other: reports no obs/off-p10") {
		t.Errorf("an entry without the metric: %v, %q; want it to fail", err, w.String())
	}
	for _, bad := range []string{"obs/off-p10", "=1.35", "obs/off-p10=x"} {
		if err := runGuard(io.Discard, path, 1.0, row, -1, -1, bad); err == nil {
			t.Errorf("malformed bound %q passed", bad)
		}
	}
}

func TestGuardFailsOnAllocs(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkSchedulerAssign/MICCO(0,2,0)": {"ns/op": 150, "allocs/op": 1},
  "_baseline/BenchmarkSchedulerAssign/MICCO(0,2,0)": {"ns/op": 140}
}`)
	var w strings.Builder
	err := runGuard(&w, path, 2.0, defaultGuardPrefix, 0, -1, "")
	if err == nil {
		t.Fatal("allocating hot path passed the guard")
	}
	if !strings.Contains(w.String(), "allocs/op") {
		t.Errorf("failure output = %q, want allocs/op mention", w.String())
	}
}

func TestGuardFailsOnSlowdown(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkSchedulerAssign/MICCO(0,2,0)": {"ns/op": 500, "allocs/op": 0},
  "_baseline/BenchmarkSchedulerAssign/MICCO(0,2,0)": {"ns/op": 140}
}`)
	var w strings.Builder
	if err := runGuard(&w, path, 2.0, defaultGuardPrefix, 0, -1, ""); err == nil {
		t.Fatal("3.6x slowdown passed a 2x guard")
	}
	// The same numbers under a forgiving tolerance must pass.
	w.Reset()
	if err := runGuard(&w, path, 4.0, defaultGuardPrefix, 0, -1, ""); err != nil {
		t.Fatalf("3.6x slowdown failed a 4x guard: %v", err)
	}
}

func TestGuardMissingBaselineWarnsAndSkips(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkSchedulerAssign/NewScheduler": {"ns/op": 9e9, "allocs/op": 0}
}`)
	var w strings.Builder
	if err := runGuard(&w, path, 2.0, defaultGuardPrefix, 0, -1, ""); err != nil {
		t.Fatalf("entry without baseline must pass (first recording): %v", err)
	}
	if !strings.Contains(w.String(), "no _baseline entry") {
		t.Errorf("output = %q, want a note about the missing baseline", w.String())
	}
}

// TestGuardKernelPrefix: -guard-prefix retargets the guard at the
// contraction-kernel document, and -guard-max-allocs -1 disables the
// allocation check (kernel benchmarks legitimately allocate) while the
// ns/op-versus-baseline comparison still bites.
func TestGuardKernelPrefix(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkContractionKernel": {"ns/op": 3.3e6, "allocs/op": 2},
  "BenchmarkContractionKernelInto": {"ns/op": 1.6e6, "allocs/op": 2},
  "BenchmarkSchedulerAssign/MICCO": {"ns/op": 9e9, "allocs/op": 99},
  "_baseline/BenchmarkContractionKernel": {"ns/op": 3.2e6},
  "_baseline/BenchmarkContractionKernelInto": {"ns/op": 1.5e6}
}`)
	var w strings.Builder
	if err := runGuard(&w, path, 2.5, "BenchmarkContraction", -1, -1, ""); err != nil {
		t.Fatalf("healthy kernel document failed the guard: %v\n%s", err, w.String())
	}
	if !strings.Contains(w.String(), "2 BenchmarkContraction* entries") {
		t.Errorf("guard summary = %q, want 2 kernel entries checked", w.String())
	}
	// With the allocation check on, the same document must fail.
	w.Reset()
	if err := runGuard(&w, path, 2.5, "BenchmarkContraction", 0, -1, ""); err == nil {
		t.Fatal("allocating kernel entries passed a zero-alloc guard")
	}
	// A kernel slowdown beyond tolerance must fail even with allocs off.
	slow := writeGuardDoc(t, `{
  "BenchmarkContractionKernel": {"ns/op": 9e6, "allocs/op": 2},
  "_baseline/BenchmarkContractionKernel": {"ns/op": 3.2e6}
}`)
	if err := runGuard(io.Discard, slow, 2.5, "BenchmarkContraction", -1, -1, ""); err == nil {
		t.Fatal("2.8x kernel slowdown passed a 2.5x guard")
	}
}

// TestGuardMaxBytes: -guard-max-bytes caps B/op per guarded entry, the
// way the numeric engine's per-job allocation is held near its live set;
// negative leaves B/op unchecked.
func TestGuardMaxBytes(t *testing.T) {
	path := writeGuardDoc(t, `{
  "BenchmarkNumericRun/al_rhopi_t4": {"ns/op": 1.9e8, "B/op": 7.5e7, "allocs/op": 1100},
  "_baseline/BenchmarkNumericRun/al_rhopi_t4": {"ns/op": 2.6e8, "B/op": 1.6e8}
}`)
	if err := runGuard(io.Discard, path, 2.5, "BenchmarkNumericRun", -1, 100e6, ""); err != nil {
		t.Fatalf("75 MB/op failed a 100 MB cap: %v", err)
	}
	var w strings.Builder
	if err := runGuard(&w, path, 2.5, "BenchmarkNumericRun", -1, 50e6, ""); err == nil {
		t.Fatal("75 MB/op passed a 50 MB cap")
	}
	if !strings.Contains(w.String(), "B/op") {
		t.Errorf("failure output = %q, want the B/op line", w.String())
	}
	if err := runGuard(io.Discard, path, 2.5, "BenchmarkNumericRun", -1, -1, ""); err != nil {
		t.Fatalf("B/op check off: %v", err)
	}
}

func TestGuardErrors(t *testing.T) {
	t.Run("no-entries", func(t *testing.T) {
		path := writeGuardDoc(t, `{"BenchmarkContractionKernel": {"ns/op": 1, "allocs/op": 0}}`)
		if err := runGuard(io.Discard, path, 2.0, defaultGuardPrefix, 0, -1, ""); err == nil {
			t.Error("document without scheduler entries passed a vacuous guard")
		}
	})
	t.Run("missing-file", func(t *testing.T) {
		if err := runGuard(io.Discard, filepath.Join(t.TempDir(), "missing.json"), 2.0, defaultGuardPrefix, 0, -1, ""); err == nil {
			t.Error("missing document: want error")
		}
	})
	t.Run("malformed", func(t *testing.T) {
		path := writeGuardDoc(t, "not json")
		if err := runGuard(io.Discard, path, 2.0, defaultGuardPrefix, 0, -1, ""); err == nil {
			t.Error("malformed document: want error")
		}
	})
	t.Run("bad-tolerance", func(t *testing.T) {
		path := writeGuardDoc(t, `{"BenchmarkSchedulerAssign/X": {"ns/op": 1, "allocs/op": 0}}`)
		if err := runGuard(io.Discard, path, 0, defaultGuardPrefix, 0, -1, ""); err == nil {
			t.Error("zero tolerance: want error")
		}
	})
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var tee strings.Builder
	if err := run(strings.NewReader("no benchmarks here\n"), &tee, io.Discard, "", 4, ""); err == nil {
		t.Error("input without results: want error")
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"BenchmarkBroken-4 notanumber 12 ns/op",
		"BenchmarkNoNs-4 100 12 B/op",
		"goos: linux",
	} {
		if m, _ := parseLine(line, 4); m != nil {
			t.Errorf("parseLine(%q) = %v, want nil", line, m)
		}
	}
}

func TestStripProcs(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		want  string
	}{
		{"BenchmarkX-8", 8, "BenchmarkX"},
		{"BenchmarkX", 8, "BenchmarkX"},
		{"BenchmarkX/sub-case-4", 4, "BenchmarkX/sub-case"},
		{"BenchmarkX/sub-case", 4, "BenchmarkX/sub-case"},
		// Only the exact -procs suffix is recognized: at GOMAXPROCS=1 go
		// test emits no suffix, so numeric-tailed names must stay intact.
		{"BenchmarkX/dim-128", 1, "BenchmarkX/dim-128"},
		{"BenchmarkX/dim-128", 4, "BenchmarkX/dim-128"},
		{"BenchmarkX-16", 8, "BenchmarkX-16"},
	}
	for _, c := range cases {
		if got := stripProcs(c.name, c.procs); got != c.want {
			t.Errorf("stripProcs(%q, %d) = %q, want %q", c.name, c.procs, got, c.want)
		}
	}
}

// TestRunGOMAXPROCS1NoCollision reproduces the failure mode the suffix
// heuristic used to have: at GOMAXPROCS=1 the names carry no suffix, and
// sub-benchmarks ending in distinct numbers must stay distinct keys.
func TestRunGOMAXPROCS1NoCollision(t *testing.T) {
	in := "BenchmarkX/dim-64 \t 10\t 100 ns/op\nBenchmarkX/dim-128 \t 10\t 200 ns/op\n"
	var tee strings.Builder
	if err := run(strings.NewReader(in), &tee, io.Discard, "", 1, ""); err != nil {
		t.Fatal(err)
	}
	rest := strings.TrimPrefix(tee.String(), in)
	var doc map[string]map[string]float64
	if err := json.Unmarshal([]byte(rest), &doc); err != nil {
		t.Fatalf("stdout JSON invalid: %v", err)
	}
	if len(doc) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 (keys: %v)", len(doc), doc)
	}
	if doc["BenchmarkX/dim-64"]["ns/op"] != 100 || doc["BenchmarkX/dim-128"]["ns/op"] != 200 {
		t.Errorf("metrics misattributed: %v", doc)
	}
}
