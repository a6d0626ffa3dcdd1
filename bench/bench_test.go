package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"micco/internal/sched"
)

// testSeed is not the default seed: the short runs pass on
// self-consistency alone, without golden.json.
const testSeed = 7

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON checks BENCHMARK.json against the tables the
// benchmark prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds != runSeconds {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the benchmark's table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the benchmark's table")
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
			t.Errorf("metric %+v: needs a unit, a direction and a bound of at most 0.25", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or used twice", w.name)
		}
		seen[w.name] = true
	}
}

// checkPrinted asserts that a result holds exactly the table's metrics and
// prints each once, with its unit, before the JSON line.
func checkPrinted(t *testing.T, res *result, table []metric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(table) {
		t.Errorf("%d metrics reported, the table has %d", len(res.Metrics), len(table))
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := make(map[string]int)
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 {
			printed[f[0]+" "+f[2]]++
		}
	}
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s: reported %+v, want unit %q and a finite value", m.Name, v, m.Unit)
		}
		if n := printed[m.Name+" "+m.Unit]; n != 1 {
			t.Errorf("metric %s printed %d times with unit %s, want once", m.Name, n, m.Unit)
		}
	}
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !reflect.DeepEqual(&last, res) {
		t.Error("the JSON line does not round-trip to the result")
	}
}

// TestShortRun runs both passes of all five workloads at reduced sizes. The
// traced pass itself fails when a job's self times do not sum to its span
// or when a replayed simulator run differs from the recorded one.
func TestShortRun(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			res, err := timedPass(def, testSeed, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, res, endToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, must never be 0", name, v.Value)
				}
			}

			dir := t.TempDir()
			res, err = tracedPass(def, testSeed, 0, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, res, perLayer)
			var parts float64
			for _, layer := range partitionLayers {
				parts += res.Metrics[layer+".self_ms"].Value
			}
			if span := res.Metrics["bench.job_span_ms"].Value; span <= 0 || math.Abs(parts-span) > 1e-6*span {
				t.Errorf("per-layer self times sum to %g ms, the job span is %g ms", parts, span)
			}
			checkSpans(t, filepath.Join(dir, "spans-"+def.name+".json"))
			if left, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(left) > 0 {
				t.Errorf("temporary files left behind: %v", left)
			}
		})
	}
}

// checkSpans reads a span file back: every child lies inside its parent
// and belongs to the same job, and each job's self times sum to its span.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	if err := json.Unmarshal(data, &tr.spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.spans {
		if !nameRE.MatchString(s.Layer) || s.End < s.Start || s.Busy < 0 || s.Busy > s.End-s.Start {
			t.Errorf("malformed span %+v", s)
		}
		if s.Job > tr.jobs {
			tr.jobs = s.Job
		}
		if s.Parent == 0 {
			continue
		}
		if s.Job == 0 {
			t.Errorf("span %d was measured after the jobs but has a parent", s.ID)
		}
		p := tr.spans[s.Parent-1]
		if p.ID != s.Parent || p.Job != s.Job || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v does not lie inside its parent %+v", s, p)
		}
	}
	if tr.jobs < 5 {
		t.Errorf("%d traced jobs, want at least 5", tr.jobs)
	}
	for job := 1; job <= tr.jobs; job++ {
		byLayer, total := tr.selfTimes(job)
		var sum int64
		for _, ns := range byLayer {
			if ns < 0 {
				t.Errorf("job %d: negative self time %v", job, byLayer)
			}
			sum += ns
		}
		if sum != total || total <= 0 {
			t.Errorf("job %d: self times sum to %d ns, span %d ns", job, sum, total)
		}
	}
}

// TestReplayAndWrapper pins the two outside-only techniques on a run with
// evictions: re-issuing the recorded placements reproduces the recorded
// makespan and statistics bit for bit, and the timing decorator returns
// the wrapped scheduler's assignments unchanged.
func TestReplayAndWrapper(t *testing.T) {
	j, err := setupObservedRun(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	r := j.(*observedRun)
	opts := sched.Options{RecordAssignments: true}
	plain, err := sched.Run(context.Background(), r.w, newMicco(), r.c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total.Evictions == 0 {
		t.Fatal("the run evicts nothing; the replay would not cover eviction")
	}
	var want outcome
	want.add(plain)
	got, err := replay(r.c, r.w, plain.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("replayed run reports %+v, recorded %+v", got, want)
	}

	tr := newTracer()
	id := tr.beginJob("wrapper")
	timedRes, err := schedule(tr, "core", r.w, newMicco(), r.c, opts)
	tr.endJob(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(timedRes.Assignments, plain.Assignments) || timedRes.Scheduler != plain.Scheduler {
		t.Error("the timing decorator changed the assignments or the scheduler's name")
	}
	if _, calls := tr.busyOf("core.Assign"); calls != r.w.NumPairs() {
		t.Errorf("decorator counted %d Assign calls for %d pairs", calls, r.w.NumPairs())
	}
}

// TestCompare drives -compare on synthetic recordings.
func TestCompare(t *testing.T) {
	record := func(seed int64, scale map[string]float64, rounds []float64) string {
		set := runSet{Provenance: provenance{GOMAXPROCS: 2, Kernel: "k", Seed: seed, Seconds: 10, Rounds: len(rounds)}}
		for _, def := range workloads {
			for i, jitter := range rounds {
				vals := make(map[string]float64)
				for _, m := range endToEnd {
					f := scale[def.name+"/"+m.Name]
					if f == 0 {
						f = 1
					}
					vals[m.Name] = 100 * f * jitter
				}
				set.Runs = append(set.Runs, recordedRun{Workload: def.name, Round: i + 1, Result: *newResult(endToEnd, vals, 10, 0)})
			}
			counts := map[string]float64{"gpusim.evictions": 42 * scale[def.name+"/gpusim.evictions"]}
			set.Runs = append(set.Runs, recordedRun{Workload: def.name, Trace: 1, Round: 1, Result: *newResult(perLayer, counts, 10, 0)})
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99}
	base := record(1, nil, steady)
	for _, tc := range []struct {
		name    string
		other   string
		wantErr bool
		want    string
	}{
		{"same", record(1, nil, steady), false, "ok"},
		{"slower job", record(1, map[string]float64{"deck_plan/job_ms_p10": 1.4}, steady), true, "regressed"},
		{"lower throughput", record(1, map[string]float64{"sched_scale/pairs_per_s": 0.6}, steady), true, "regressed"},
		{"higher throughput", record(1, map[string]float64{"sched_scale/pairs_per_s": 1.5}, steady), false, "ok"},
		{"count differs", record(1, map[string]float64{"observed_run/gpusim.evictions": 2}, steady), true, "differs"},
		{"other seed", record(2, nil, steady), true, ""},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, []string{base, tc.other})
		if (err != nil) != tc.wantErr || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: err=%v, output:\n%s", tc.name, err, out.String())
		}
	}
	var out bytes.Buffer
	noisy := record(1, nil, []float64{1, 1.4, 0.6})
	if err := compareFiles(&out, []string{noisy, base}); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a base that spreads wider than the bound must read unresolved: err=%v\n%s", err, out.String())
	}
}
