package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micco"
	"micco/internal/manifest"
)

// TestGoldenDeckReport pins the full text report for the bundled f0d2
// deck on four devices under the micco scheduler. The simulation is
// deterministic, so any diff here is a real behavior change: regenerate
// with
//
//	go run ./cmd/miccoreport -deck cmd/miccoreport/testdata/f0d2.deck.json \
//	    -scheduler micco -gpus 4 -o cmd/miccoreport/testdata/f0d2.report.golden.txt
func TestGoldenDeckReport(t *testing.T) {
	cfg := reportConfig{Manifest: manifest.Manifest{
		Deck:      filepath.Join("testdata", "f0d2.deck.json"),
		Scheduler: "micco",
		Bounds:    micco.Bounds{0, 2, 0},
		GPUs:      4,
	}}
	var got bytes.Buffer
	if err := run(context.Background(), cfg, &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "f0d2.report.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

func TestJSONReportParses(t *testing.T) {
	cfg := reportConfig{
		Manifest: manifest.Manifest{
			Deck:      filepath.Join("testdata", "f0d2.deck.json"),
			Scheduler: "roundrobin",
			Bounds:    micco.Bounds{0, 2, 0},
			GPUs:      2,
		},
		jsonOut: true,
	}
	var got bytes.Buffer
	if err := run(context.Background(), cfg, &got); err != nil {
		t.Fatal(err)
	}
	var rep micco.RunReport
	if err := json.Unmarshal(got.Bytes(), &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if rep.Scheduler != "roundrobin" || rep.Devices != 2 {
		t.Errorf("header = %q/%d, want roundrobin/2", rep.Scheduler, rep.Devices)
	}
	if rep.CriticalPath == nil || len(rep.CriticalPath.Segments) == 0 {
		t.Error("JSON report missing critical path")
	}
	if len(rep.Stages) == 0 {
		t.Error("JSON report missing stage waterfall")
	}
}

// failWriter stands in for a closed pipe or a full disk behind stdout.
type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// TestStdoutErrorIsReturned renders the deck report, text and JSON, to a
// writer that fails: run buffers stdout, so the error may only appear at
// the final flush, and it must still come back.
func TestStdoutErrorIsReturned(t *testing.T) {
	boom := errors.New("boom")
	for _, jsonOut := range []bool{false, true} {
		cfg := reportConfig{
			Manifest: manifest.Manifest{
				Deck: filepath.Join("testdata", "f0d2.deck.json"), Scheduler: "micco",
				Bounds: micco.Bounds{0, 2, 0}, GPUs: 4,
			},
			jsonOut: jsonOut,
		}
		if err := run(context.Background(), cfg, failWriter{boom}); !errors.Is(err, boom) {
			t.Errorf("json=%v: run returned %v, want %v", jsonOut, err, boom)
		}
	}
}

func TestDriftMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.ndjson")
	recs := []micco.DecisionRecord{
		{Stage: 0, Device: 1, Policy: micco.PolicyComputeCentric, PredictedBytes: 100, ActualBytes: 150},
		{Stage: 0, Device: 0, Policy: micco.PolicyMemoryEviction, PredictedBytes: 200, ActualBytes: 200},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := micco.WriteDecisions(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got bytes.Buffer
	if err := run(context.Background(), reportConfig{decisions: path}, &got); err != nil {
		t.Fatal(err)
	}
	out := got.String()
	if !strings.Contains(out, "prediction drift") {
		t.Errorf("drift report missing header:\n%s", out)
	}
	if !strings.Contains(out, "compute-centric") || !strings.Contains(out, "memory-eviction") {
		t.Errorf("drift report missing policies:\n%s", out)
	}
	if strings.Contains(out, "critical path") {
		t.Errorf("drift-only report should omit the critical path:\n%s", out)
	}
}

func TestDiffMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, snap *micco.MetricsSnapshot) string {
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", &micco.MetricsSnapshot{
		Counters: map[string]float64{"micco_reuse_hits_total": 10, "micco_evictions_total": 3},
	})
	newPath := write("new.json", &micco.MetricsSnapshot{
		Counters: map[string]float64{"micco_reuse_hits_total": 14, "micco_evictions_total": 3},
	})
	var got bytes.Buffer
	cfg := reportConfig{diffOld: oldPath, diffNew: newPath}
	if err := run(context.Background(), cfg, &got); err != nil {
		t.Fatal(err)
	}
	out := got.String()
	if !strings.Contains(out, "micco_reuse_hits_total") {
		t.Errorf("diff missing changed series:\n%s", out)
	}
	if strings.Contains(out, "micco_evictions_total") {
		t.Errorf("diff should fold unchanged series into the count:\n%s", out)
	}
}

func TestModeValidation(t *testing.T) {
	ctx := context.Background()
	// Both run inputs and a missing workload file are the manifest's rules
	// (internal/manifest's TestResolve).
	cases := []reportConfig{
		{}, // no mode at all
		{Manifest: manifest.Manifest{Workload: "w.json"}, decisions: "d.ndjson"}, // two modes
		{diffOld: "old.json"},                          // half a diff
		{decisions: filepath.Join("testdata", "nope")}, // missing file
	}
	for i, cfg := range cases {
		if err := run(ctx, cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("case %d (%+v): want error", i, cfg)
		}
	}
}
