package micco_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"micco"
	"micco/internal/report"
)

// TestCriticalPathPartitionProperty is the critical-path invariant run as
// a property test over every registered scheduler and two workload seeds:
// the segments returned by report.CriticalPathOf must exactly partition
// [0, makespan] — first segment starts at 0, every boundary matches the
// next start bit for bit, the last segment ends at the makespan — and the
// blame tables must each account for the whole makespan.
func TestCriticalPathPartitionProperty(t *testing.T) {
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
				continue // needs a trained model; covered by miccobench
			}
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				s, err := micco.NewSchedulerByName(name, micco.Bounds{0, 2, 0}, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg := micco.MI100(4)
				cfg.MemoryBytes = w.TotalUniqueBytes() / 4
				cluster, err := micco.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cluster.StartTrace()
				res, err := micco.Run(context.Background(), w, s, cluster, micco.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				events := cluster.StopTrace()
				cp := report.CriticalPathOf(events, res.Makespan)
				if len(cp.Segments) == 0 {
					t.Fatal("critical path is empty")
				}
				if cp.Segments[0].Start != 0 {
					t.Errorf("first segment starts at %v, want 0", cp.Segments[0].Start)
				}
				var sum float64
				for i, seg := range cp.Segments {
					if seg.End <= seg.Start {
						t.Fatalf("segment %d: non-positive duration [%v, %v]", i, seg.Start, seg.End)
					}
					if i > 0 && seg.Start != cp.Segments[i-1].End {
						t.Fatalf("segment %d starts at %v, previous ended at %v (gap or overlap)",
							i, seg.Start, cp.Segments[i-1].End)
					}
					sum += seg.End - seg.Start
				}
				if last := cp.Segments[len(cp.Segments)-1].End; last != res.Makespan {
					t.Errorf("last segment ends at %v, want makespan %v", last, res.Makespan)
				}
				if math.Abs(sum-res.Makespan) > 1e-9*res.Makespan {
					t.Errorf("segment durations sum to %v, want makespan %v", sum, res.Makespan)
				}
				checkShares := func(label string, total float64) {
					if math.Abs(total-res.Makespan) > 1e-9*res.Makespan {
						t.Errorf("%s blame shares sum to %v, want makespan %v", label, total, res.Makespan)
					}
				}
				var byDev, byKind, byRes float64
				for _, s := range cp.ByDevice {
					byDev += s.Seconds
				}
				for _, s := range cp.ByKind {
					byKind += s.Seconds
				}
				for _, s := range cp.ByResource {
					byRes += s.Seconds
				}
				checkShares("device", byDev)
				checkShares("kind", byKind)
				checkShares("resource", byRes)
			})
		}
	}
}

// TestFlightRecorderRunsBitIdentical pins that attaching a registry with a
// live flight recorder is purely observational: the numeric fingerprint,
// makespan, stats totals and every placement match an unobserved run bit
// for bit.
func TestFlightRecorderRunsBitIdentical(t *testing.T) {
	w := obsWorkload(t)
	runOnce := func(reg *micco.MetricsRegistry) *micco.Result {
		t.Helper()
		res, err := micco.Run(context.Background(), w, micco.NewMICCOFixed(micco.Bounds{0, 2, 0}),
			obsCluster(t, w, 4),
			micco.RunOptions{RecordAssignments: true, Numeric: true, NumericSeed: 5, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := runOnce(nil)
	reg := micco.NewMetricsRegistry()
	reg.SetFlightRecorder(micco.NewFlightRecorder())
	observed := runOnce(reg)

	if plain.NumericFingerprint != observed.NumericFingerprint {
		t.Errorf("fingerprint %x with recorder, %x without",
			observed.NumericFingerprint, plain.NumericFingerprint)
	}
	if plain.Makespan != observed.Makespan || plain.Total != observed.Total {
		t.Errorf("recorder changed the run: %+v vs %+v", observed.Total, plain.Total)
	}
	if !reflect.DeepEqual(plain.Assignments, observed.Assignments) {
		t.Error("recorder changed placements")
	}
	snap := reg.FlightRecorder().Snapshot()
	if len(snap.Events) == 0 || len(snap.Decisions) == 0 || len(snap.Spans) == 0 {
		t.Errorf("flight recorder retained %d events, %d decisions, %d spans; want all non-empty",
			len(snap.Events), len(snap.Decisions), len(snap.Spans))
	}
}

// TestDecisionsNDJSONRoundTrip writes a real run's decision records as
// NDJSON, parses them back, and requires field-for-field equality.
func TestDecisionsNDJSONRoundTrip(t *testing.T) {
	w := obsWorkload(t)
	reg := micco.NewMetricsRegistry()
	if _, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), obsCluster(t, w, 4),
		micco.RunOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	recs := reg.Decisions()
	if len(recs) == 0 {
		t.Fatal("run produced no decision records")
	}
	var buf bytes.Buffer
	if err := micco.WriteDecisions(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := micco.ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip returned %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], back[i]) {
			t.Fatalf("record %d round trip mismatch:\nwrote %+v\nread  %+v", i, recs[i], back[i])
		}
	}
}

// TestSpanParentNesting checks the span tree of a faulted run: one root
// run span, every stage span and every recovery span parented to it.
func TestSpanParentNesting(t *testing.T) {
	w := obsWorkload(t)
	reg := micco.NewMetricsRegistry()
	plan := &micco.FaultPlan{Events: []micco.FaultEvent{
		{Kind: micco.FaultDeviceLoss, Stage: 1, Pair: 0, Device: 3},
	}}
	if _, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), obsCluster(t, w, 4),
		micco.RunOptions{Obs: reg, FaultPlan: plan}); err != nil {
		t.Fatal(err)
	}
	spans := reg.Snapshot().Spans
	var runID uint64
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Name == "run" {
			if runID != 0 {
				t.Fatal("more than one run span")
			}
			if s.Parent != 0 {
				t.Errorf("run span has parent %d, want root", s.Parent)
			}
			runID = s.ID
		}
	}
	if runID == 0 {
		t.Fatal("no run span recorded")
	}
	if counts["stage"] != len(w.Stages) {
		t.Errorf("stage spans = %d, want %d", counts["stage"], len(w.Stages))
	}
	if counts["recovery"] == 0 {
		t.Error("faulted run recorded no recovery span")
	}
	for _, s := range spans {
		switch s.Name {
		case "stage", "recovery":
			if s.Parent != runID {
				t.Errorf("%s span %d has parent %d, want run span %d", s.Name, s.ID, s.Parent, runID)
			}
			if s.End < s.Start {
				t.Errorf("%s span %d ends (%v) before it starts (%v)", s.Name, s.ID, s.End, s.Start)
			}
		}
	}
}
