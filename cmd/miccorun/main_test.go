package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"micco"
	"micco/internal/manifest"
	"micco/internal/workload"
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
	return runConfig{Manifest: manifest.Manifest{Workload: workload, Scheduler: "micco", Bounds: micco.Bounds{0, 2, 0}, GPUs: 4}}
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

// TestRunErrors: a workload file that is valid JSON but holds no stream is
// refused. The manifest's rules — a missing, unreadable or malformed file,
// an unknown scheduler — are internal/manifest's TestResolve.
func TestRunErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), base(empty)); err == nil {
		t.Error("empty workload: want error")
	}

	// A negative count or budget is refused with an error naming its flag
	// before the run starts, even where it would otherwise pass silently
	// (a negative -stall-budget with -supervise turned the watchdog off).
	path := workloadFile(t)
	for _, c := range []struct {
		flag string
		set  func(*runConfig)
	}{
		{"-stall-budget", func(rc *runConfig) { rc.stallBudget = -time.Second }},
		{"-stall-budget", func(rc *runConfig) { rc.stallBudget = -time.Second; rc.supervise = true }},
		{"-checkpoint-every", func(rc *runConfig) { rc.ckptEvery = -1 }},
		{"-checkpoint-every", func(rc *runConfig) { rc.ckptEvery = -2; rc.ckptDir = t.TempDir() }},
		{"-numeric-parallel", func(rc *runConfig) { rc.numericPar = -4; rc.numeric = true }},
	} {
		rc := base(path)
		c.set(&rc)
		what := fmt.Sprintf("%s (stall-budget %v, supervise %v, checkpoint-every %d, numeric-parallel %d)",
			c.flag, rc.stallBudget, rc.supervise, rc.ckptEvery, rc.numericPar)
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = out
		err = run(context.Background(), rc)
		os.Stdout = old
		out.Close()
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: err = %v, want an error naming the flag", what, err)
		}
		if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
			t.Errorf("%s: the run printed %q before refusing the flag", what, printed)
		}
	}
}

// TestRunRefusesMalformedWorkloadFiles: a workload file whose stream is
// not one a constructor would build is refused at load, before the run
// prints anything, with an error wrapping workload.ErrInvalidStages that
// names the stage and the tensor.
func TestRunRefusesMalformedWorkloadFiles(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(w *micco.Workload) string // makes the flaw, returns what the error must say
	}{
		{"unknown operand", func(w *micco.Workload) string {
			id := w.Outputs[len(w.Outputs)-1].ID + 1
			w.Stages[2].Pairs[0].A.ID = id
			return fmt.Sprintf("stage 2 operand t%d unknown", id)
		}},
		{"duplicate output", func(w *micco.Workload) string {
			w.Stages[1].Pairs[4].Out = w.Stages[0].Pairs[2].Out
			return fmt.Sprintf("stage 1 output t%d already exists", w.Stages[0].Pairs[2].Out.ID)
		}},
		{"output equals an input", func(w *micco.Workload) string {
			w.Stages[0].Pairs[0].Out = w.Stages[0].Pairs[0].A
			return fmt.Sprintf("stage 0 output t%d already exists", w.Stages[0].Pairs[0].A.ID)
		}},
		{"false LastUse", func(w *micco.Workload) string {
			p := &w.Stages[3].Pairs[1]
			p.LastUse[0] = !p.LastUse[0]
			return fmt.Sprintf("stage 3 marks LastUse %v of operand t%d", p.LastUse[0], p.A.ID)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := micco.GenerateWorkload(micco.WorkloadConfig{
				Seed: 3, Stages: 4, VectorSize: 8, TensorDim: 64, Batch: 2,
				Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := c.edit(w)
			raw, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "w.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := os.Create(filepath.Join(dir, "stdout"))
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			old := os.Stdout
			os.Stdout = out
			rc := base(path)
			rc.numeric = true
			err = run(context.Background(), rc)
			os.Stdout = old
			if !errors.Is(err, workload.ErrInvalidStages) || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one wrapping ErrInvalidStages containing %q", err, want)
			}
			if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
				t.Errorf("the run printed %q before refusing the file", printed)
			}
		})
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
	cfg.Scheduler = "groute"
	cfg.Bounds = micco.Bounds{}
	cfg.GPUs = 2
	cfg.MemGiB = 0.25
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
