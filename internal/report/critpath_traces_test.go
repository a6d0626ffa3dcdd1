package report_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"micco"
	"micco/internal/obs"
	"micco/internal/report"
)

// TestCriticalPathMatchesReferenceOnTraces holds the walk to the quadratic
// one it replaced on what the simulator really records: the fixture of the
// root TestCriticalPathPartitionProperty (every registered scheduler, two
// workload seeds, four devices), with ample and scarce device memory, with
// and without a device lost in the middle of a stage.
func TestCriticalPathMatchesReferenceOnTraces(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		w, err := micco.GenerateWorkload(micco.WorkloadConfig{
			Seed: seed, Stages: 5, VectorSize: 8, TensorDim: 64, Batch: 2,
			Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		memory := []struct {
			name  string
			bytes int64
		}{
			{"ample", w.TotalUniqueBytes() + w.TotalUniqueBytes()/10},
			{"scarce", w.TotalUniqueBytes() / 4},
		}
		faults := []struct {
			name string
			plan *micco.FaultPlan
		}{
			{"clean", nil},
			{"loss", &micco.FaultPlan{Events: []micco.FaultEvent{
				{Kind: micco.FaultDeviceLoss, Stage: 2, Pair: len(w.Stages[2].Pairs) / 2, Device: 3},
			}}},
		}
		for _, name := range micco.SchedulerNames() {
			if micco.SchedulerNeedsPredictor(name) {
				continue // needs a trained model
			}
			for _, mem := range memory {
				for _, fault := range faults {
					t.Run(fmt.Sprintf("%s/seed%d/%s/%s", name, seed, mem.name, fault.name), func(t *testing.T) {
						s, err := micco.NewSchedulerByName(name, micco.Bounds{0, 2, 0}, nil)
						if err != nil {
							t.Fatal(err)
						}
						cfg := micco.MI100(4)
						cfg.MemoryBytes = mem.bytes
						cluster, err := micco.NewCluster(cfg)
						if err != nil {
							t.Fatal(err)
						}
						cluster.StartTrace()
						res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{FaultPlan: fault.plan})
						if err != nil {
							t.Fatal(err)
						}
						events := cluster.StopTrace()
						lost := slices.ContainsFunc(events, func(e obs.Event) bool { return e.Kind == obs.EventFault })
						if len(events) == 0 || lost != (fault.plan != nil) {
							t.Fatalf("the run recorded %d events, a fault among them: %v", len(events), lost)
						}
						got := report.CriticalPathOf(events, res.Makespan)
						if err := report.EqualPaths(got, report.RefCriticalPath(events, res.Makespan)); err != nil {
							t.Errorf("%d events: %v", len(events), err)
						}
					})
				}
			}
		}
	}
}

// TestBuildOnOneAndTwoProcsOnTraces builds the report of the same runs as
// TestCriticalPathMatchesReferenceOnTraces, watched so that every section
// is there, at GOMAXPROCS 1 and 2: both reports are deeply equal to the
// sections computed one after the other, and no goroutine of Build
// outlives the builds.
func TestBuildOnOneAndTwoProcsOnTraces(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, seed := range []int64{11, 23} {
		w, err := micco.GenerateWorkload(micco.WorkloadConfig{
			Seed: seed, Stages: 5, VectorSize: 8, TensorDim: 64, Batch: 2,
			Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range micco.SchedulerNames() {
			if micco.SchedulerNeedsPredictor(name) {
				continue
			}
			for _, mem := range []int64{w.TotalUniqueBytes() + w.TotalUniqueBytes()/10, w.TotalUniqueBytes() / 4} {
				for _, plan := range []*micco.FaultPlan{nil, {Events: []micco.FaultEvent{
					{Kind: micco.FaultDeviceLoss, Stage: 2, Pair: len(w.Stages[2].Pairs) / 2, Device: 3},
				}}} {
					s, err := micco.NewSchedulerByName(name, micco.Bounds{0, 2, 0}, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg := micco.MI100(4)
					cfg.MemoryBytes = mem
					cluster, err := micco.NewCluster(cfg)
					if err != nil {
						t.Fatal(err)
					}
					reg := micco.NewMetricsRegistry()
					cluster.StartTrace()
					res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{Obs: reg, FaultPlan: plan})
					if err != nil {
						t.Fatal(err)
					}
					in := report.Input{
						Scheduler: res.Scheduler, Workload: res.Workload, Devices: cluster.NumDevices(), Makespan: res.Makespan,
						Events: cluster.StopTrace(), Decisions: reg.Decisions(), Snapshot: res.Metrics,
					}
					if len(in.Events) == 0 || len(in.Decisions) == 0 || in.Snapshot == nil {
						t.Fatalf("%s, seed %d: %d events, %d decisions, snapshot %v", name, seed, len(in.Events), len(in.Decisions), in.Snapshot != nil)
					}
					want := &report.Report{
						Scheduler: in.Scheduler, Workload: in.Workload, Devices: in.Devices, Makespan: in.Makespan,
						CriticalPath: report.CriticalPathOf(in.Events, in.Makespan),
						Stages:       report.StageWaterfall(in.Snapshot.Spans, in.Events, in.Devices),
						Drift:        report.SummarizeDrift(in.Decisions),
					}
					if len(want.Stages) == 0 {
						t.Fatalf("%s, seed %d: no stage rows", name, seed)
					}
					for _, procs := range []int{1, 2} {
						prev := runtime.GOMAXPROCS(procs)
						got := report.Build(in)
						runtime.GOMAXPROCS(prev)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s, seed %d, memory %d, fault %v, GOMAXPROCS %d: Build differs from its sections", name, seed, mem, plan != nil, procs)
						}
					}
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the builds, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
