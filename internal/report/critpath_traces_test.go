package report_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"micco"
	"micco/internal/gpusim"
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
						lost := slices.ContainsFunc(events, func(e gpusim.Event) bool { return e.Kind == gpusim.EventFault })
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
