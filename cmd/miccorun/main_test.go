package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"micco"
)

func workloadFile(t *testing.T) string {
	t.Helper()
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 3, Stages: 4, VectorSize: 8, TensorDim: 64, Batch: 2,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func silence(t *testing.T, f func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	return f()
}

func TestParseBounds(t *testing.T) {
	b, err := parseBounds("0,2,0")
	if err != nil || b != (micco.Bounds{0, 2, 0}) {
		t.Errorf("parseBounds = %v, %v", b, err)
	}
	b, err = parseBounds(" 1 , 2 , 3 ")
	if err != nil || b != (micco.Bounds{1, 2, 3}) {
		t.Errorf("spaced bounds = %v, %v", b, err)
	}
	for _, bad := range []string{"", "1,2", "a,b,c", "-1,0,0", "1,2,3,4"} {
		if _, err := parseBounds(bad); err == nil {
			t.Errorf("parseBounds(%q): want error", bad)
		}
	}
}

func TestSchedulerRegistry(t *testing.T) {
	for _, name := range micco.SchedulerNames() {
		if micco.SchedulerNeedsPredictor(name) {
			continue
		}
		s, err := micco.NewSchedulerByName(name, micco.Bounds{}, nil)
		if err != nil || s == nil {
			t.Errorf("NewSchedulerByName(%q): %v", name, err)
		}
	}
	if _, err := micco.NewSchedulerByName("heft", micco.Bounds{}, nil); !errors.Is(err, micco.ErrUnknownScheduler) {
		t.Errorf("unknown scheduler: want ErrUnknownScheduler, got %v", err)
	}
}

// base returns a runnable config; tests override individual fields.
func base(workload string) runConfig {
	return runConfig{workload: workload, scheduler: "micco", bounds: "0,2,0", gpus: 4}
}

func TestRunWorkloadFileAndCompare(t *testing.T) {
	path := workloadFile(t)
	trace := filepath.Join(t.TempDir(), "trace.json")
	cfg := base(path)
	cfg.compare = true
	cfg.traceOut = trace
	err := silence(t, func() error { return run(context.Background(), cfg) })
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("empty trace")
	}
	// With observability on, the trace also carries decision instant events.
	instants := 0
	for _, e := range events {
		if e["ph"] == "i" {
			instants++
		}
	}
	if instants == 0 {
		t.Error("trace has no decision instant events")
	}
}

func TestRunWritesMetricsAndDecisions(t *testing.T) {
	path := workloadFile(t)
	dir := t.TempDir()
	cfg := base(path)
	cfg.metricsOut = filepath.Join(dir, "m.json")
	cfg.decisionsOut = filepath.Join(dir, "d.ndjson")
	err := silence(t, func() error { return run(context.Background(), cfg) })
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap micco.MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Gauges) == 0 {
		t.Errorf("metrics snapshot empty: %d counters, %d gauges", len(snap.Counters), len(snap.Gauges))
	}
	draw, err := os.ReadFile(cfg.decisionsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(draw), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("no decision records")
	}
	var rec micco.DecisionRecord
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("decision line not valid JSON: %v", err)
	}
	if rec.Policy == 0 {
		t.Error("decision record has no policy")
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, base("")); err == nil {
		t.Error("missing workload: want error")
	}
	if err := run(ctx, base("/nonexistent.json")); err == nil {
		t.Error("missing file: want error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, base(bad)); err == nil {
		t.Error("bad JSON: want error")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, base(empty)); err == nil {
		t.Error("empty workload: want error")
	}
	good := workloadFile(t)
	cfg := base(good)
	cfg.scheduler = "heft"
	if err := run(ctx, cfg); err == nil {
		t.Error("bad scheduler: want error")
	}
	cfg = base(good)
	cfg.bounds = "x"
	if err := run(ctx, cfg); err == nil {
		t.Error("bad bounds: want error")
	}
}

func TestRunWithFaultPlan(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	plan := &micco.FaultPlan{Events: []micco.FaultEvent{
		{Kind: micco.FaultDeviceLoss, Stage: 1, Pair: 0, Device: 1},
		{Kind: micco.FaultTransientTransfer, Stage: 2, Pair: 0, Failures: 2},
		{Kind: micco.FaultDeviceRestore, Stage: 3, Pair: -1, Device: 1},
	}}
	f, err := os.Create(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := micco.SaveFaultPlan(f, plan); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := base(workloadFile(t))
	cfg.faultsIn = planPath
	cfg.compare = true
	if err := silence(t, func() error { return run(context.Background(), cfg) }); err != nil {
		t.Fatal(err)
	}

	// A malformed plan file fails loudly.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"evnets":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = base(workloadFile(t))
	cfg.faultsIn = bad
	if err := run(context.Background(), cfg); err == nil {
		t.Error("malformed fault plan: want error")
	}

	// A plan naming a device outside the cluster fails validation.
	oob := filepath.Join(dir, "oob.json")
	if err := os.WriteFile(oob, []byte(`{"events":[{"kind":"device-loss","device":99}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = base(workloadFile(t))
	cfg.faultsIn = oob
	if err := run(context.Background(), cfg); err == nil {
		t.Error("out-of-range fault device: want error")
	}
}

// TestRunNumericFlags: a -numeric run completes.
func TestRunNumericFlags(t *testing.T) {
	path := workloadFile(t)
	cfg := base(path)
	cfg.numeric = true
	cfg.numericSeed = 7
	if err := silence(t, func() error { return run(context.Background(), cfg) }); err != nil {
		t.Fatalf("numeric run: %v", err)
	}
}

func TestRunWithExplicitMemory(t *testing.T) {
	cfg := base(workloadFile(t))
	cfg.scheduler = "groute"
	cfg.bounds = "0,0,0"
	cfg.gpus = 2
	cfg.memGiB = 0.25
	err := silence(t, func() error { return run(context.Background(), cfg) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointAndSupervise: -checkpoint-dir leaves a durable final
// checkpoint the decoder accepts; -supervise completes a clean run; the
// flag cross-checks reject inconsistent combinations before any run.
func TestRunCheckpointAndSupervise(t *testing.T) {
	path := workloadFile(t)
	dir := t.TempDir()
	cfg := base(path)
	cfg.ckptDir = dir
	cfg.ckptEvery = 2
	cfg.supervise = true
	cfg.numeric = true
	cfg.numericSeed = 5
	if err := silence(t, func() error { return run(context.Background(), cfg) }); err != nil {
		t.Fatalf("supervised checkpointed run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("checkpoint dir entries = %v, %v; want exactly the durable file", entries, err)
	}
	cp, err := micco.LoadCheckpointFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatalf("final durable checkpoint unreadable: %v", err)
	}
	if cp.Workload() == "" {
		t.Error("checkpoint has no workload name")
	}

	bad := base(path)
	bad.ckptEvery = 2
	if err := run(context.Background(), bad); err == nil {
		t.Error("-checkpoint-every without -checkpoint-dir accepted")
	}
	bad = base(path)
	bad.stallBudget = time.Second
	if err := run(context.Background(), bad); err == nil {
		t.Error("-stall-budget without -supervise accepted")
	}
}
