package micco_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"micco"
)

func obsWorkload(t *testing.T) *micco.Workload {
	t.Helper()
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 11, Stages: 6, VectorSize: 8, TensorDim: 64, Batch: 2,
		Rank: micco.RankMeson, RepeatRate: 0.6, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// obsCluster sizes device pools to a third of the unique working set, so
// runs generate real eviction and write-back traffic to reconcile.
func obsCluster(t *testing.T, w *micco.Workload, gpus int) *micco.Cluster {
	t.Helper()
	cfg := micco.MI100(gpus)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 8
	c, err := micco.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecisionRecordsReconcileWithDeviceStats checks the observability
// layer against the simulator's own accounting: summing the per-placement
// decision records must reproduce the run's DeviceStats totals exactly,
// and the engine's pattern counters must agree with the records.
func TestDecisionRecordsReconcileWithDeviceStats(t *testing.T) {
	cases := []struct {
		name string
		s    micco.Scheduler
	}{
		{"micco-naive", micco.NewMICCONaive()},
		{"groute", micco.NewGroute()},
	}
	w := obsWorkload(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cluster := obsCluster(t, w, 4)
			reg := micco.NewMetricsRegistry()
			res, err := micco.Run(context.Background(), w, tc.s, cluster, micco.RunOptions{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			recs := reg.Decisions()
			if len(recs) != w.NumPairs() {
				t.Fatalf("decision records = %d, want %d (one per pair)", len(recs), w.NumPairs())
			}

			var actual, d2h, evictions, predicted int64
			var patterns [4]int64
			for _, r := range recs {
				actual += r.ActualBytes
				d2h += r.ActualD2HBytes
				evictions += int64(r.Evictions)
				predicted += r.PredictedBytes
				patterns[int(r.Pattern)]++
			}
			if want := res.Total.H2DBytes + res.Total.P2PBytes; actual != want {
				t.Errorf("sum of ActualBytes = %d, want H2D+P2P = %d", actual, want)
			}
			if d2h != res.Total.D2HBytes {
				t.Errorf("sum of ActualD2HBytes = %d, want D2H = %d", d2h, res.Total.D2HBytes)
			}
			if evictions != res.Total.Evictions {
				t.Errorf("sum of Evictions = %d, want %d", evictions, res.Total.Evictions)
			}
			// The simulator pins operands and fetches each exactly once, so
			// for placements that evicted nothing the engine's prediction
			// (non-resident operand bytes on the chosen device) must equal
			// what the simulator charged. Under eviction, actual may exceed
			// predicted: fetching one operand can evict the other before it
			// is pinned, forcing a re-fetch — exactly the divergence the two
			// fields exist to expose.
			for i, r := range recs {
				if r.Evictions == 0 && r.PredictedBytes != r.ActualBytes {
					t.Errorf("record %d: predicted %d != actual %d without evictions",
						i, r.PredictedBytes, r.ActualBytes)
				}
			}
			if predicted > actual {
				t.Errorf("sum of PredictedBytes = %d exceeds ActualBytes sum %d", predicted, actual)
			}
			if evictions == 0 {
				t.Error("run produced no evictions; pool sizing no longer stresses memory")
			}

			// Engine pattern counters reconcile with the records.
			for p, n := range patterns {
				name := fmt.Sprintf("micco_sched_pattern_total{pattern=%q}", micco.ReusePattern(p).String())
				if got := reg.Counter(name).Value(); got != float64(n) {
					t.Errorf("%s = %v, want %d", name, got, n)
				}
			}

			// Every record carries the fields only the scheduler knows.
			for i, r := range recs {
				if r.Policy == 0 {
					t.Fatalf("record %d has no policy: %+v", i, r)
				}
				if len(r.Candidates) == 0 {
					t.Fatalf("record %d has no candidates: %+v", i, r)
				}
			}

			if res.Metrics == nil {
				t.Fatal("Result.Metrics nil with observability enabled")
			}
			if res.Metrics.Decisions != len(recs) {
				t.Errorf("snapshot decision count = %d, want %d", res.Metrics.Decisions, len(recs))
			}
			if res.Metrics.Gauges["micco_run_makespan_seconds"] != res.Makespan {
				t.Errorf("makespan gauge = %v, want %v",
					res.Metrics.Gauges["micco_run_makespan_seconds"], res.Makespan)
			}
		})
	}
}

// TestMICCOBoundAttribution checks that MICCO publishes which reuse bound
// gated each placement and that the attribution is consistent with the
// pattern actually observed.
func TestMICCOBoundAttribution(t *testing.T) {
	w := obsWorkload(t)
	cluster := obsCluster(t, w, 4)
	reg := micco.NewMetricsRegistry()
	if _, err := micco.Run(context.Background(), w, micco.NewMICCOFixed(micco.Bounds{1, 2, 1}),
		cluster, micco.RunOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]int{}
	for i, r := range reg.Decisions() {
		if r.BoundIndex < -1 || r.BoundIndex > 2 {
			t.Fatalf("record %d: bound index %d out of range", i, r.BoundIndex)
		}
		seen[r.BoundIndex]++
		if r.BoundIndex == 0 && r.Pattern.String() != "twoRepeatedSame" {
			t.Errorf("record %d: bound 0 placement with pattern %s", i, r.Pattern)
		}
	}
	if seen[2] == 0 {
		t.Error("no placement ever reached the step-III bound (twoNew pairs exist in every workload)")
	}
}

// TestNumericWorkerGauges checks that a numeric run publishes one
// busy/wait/utilization gauge triple per pool worker, worker 0 being the
// engine goroutine — at an explicit width and at Parallelism 1, whose pool
// is GOMAXPROCS wide.
func TestNumericWorkerGauges(t *testing.T) {
	w := obsWorkload(t)
	for _, c := range []struct{ parallelism, width int }{{2, 2}, {1, runtime.GOMAXPROCS(0)}} {
		cluster := obsCluster(t, w, 2)
		reg := micco.NewMetricsRegistry()
		res, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), cluster,
			micco.RunOptions{Obs: reg, Numeric: true, Parallelism: c.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumericFingerprint == 0 {
			t.Error("numeric run produced no fingerprint")
		}
		snap := reg.Snapshot()
		for worker := 0; worker < c.width; worker++ {
			for _, metric := range []string{"busy_seconds", "wait_seconds", "utilization"} {
				name := fmt.Sprintf("micco_numeric_worker_%s{worker=\"%d\"}", metric, worker)
				v, ok := snap.Gauges[name]
				if !ok {
					t.Errorf("parallelism %d: gauge %s missing", c.parallelism, name)
					continue
				}
				if v < 0 {
					t.Errorf("parallelism %d: gauge %s = %v, want >= 0", c.parallelism, name, v)
				}
			}
			util := snap.Gauges[fmt.Sprintf("micco_numeric_worker_utilization{worker=\"%d\"}", worker)]
			if util > 1 {
				t.Errorf("parallelism %d: worker %d utilization %v > 1", c.parallelism, worker, util)
			}
		}
		if _, ok := snap.Gauges[fmt.Sprintf("micco_numeric_worker_busy_seconds{worker=\"%d\"}", c.width)]; ok {
			t.Errorf("parallelism %d: a gauge was published for worker %d, past the pool's width", c.parallelism, c.width)
		}
		if busy := snap.Gauges[`micco_numeric_worker_busy_seconds{worker="0"}`]; busy <= 0 {
			t.Errorf("parallelism %d: the engine goroutine contracted nothing (busy %v)", c.parallelism, busy)
		}
	}
}

// TestRunWithoutObservabilityHasNoMetrics pins the disabled default: no
// registry, no snapshot, no decision side-channel.
func TestRunWithoutObservabilityHasNoMetrics(t *testing.T) {
	w := obsWorkload(t)
	cluster := obsCluster(t, w, 2)
	res, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), cluster, micco.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Errorf("Result.Metrics = %+v, want nil without a registry", res.Metrics)
	}
}

// TestObservabilityDoesNotChangeScheduling pins that attaching a registry
// is purely observational: placements, makespan, and stats are identical
// with and without it.
func TestObservabilityDoesNotChangeScheduling(t *testing.T) {
	w := obsWorkload(t)
	plain, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), obsCluster(t, w, 4),
		micco.RunOptions{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := micco.Run(context.Background(), w, micco.NewMICCONaive(), obsCluster(t, w, 4),
		micco.RunOptions{RecordAssignments: true, Obs: micco.NewMetricsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != observed.Makespan || plain.Total != observed.Total {
		t.Errorf("observability changed the run: %+v vs %+v", plain.Total, observed.Total)
	}
	for si := range plain.Assignments {
		for pi := range plain.Assignments[si] {
			if plain.Assignments[si][pi] != observed.Assignments[si][pi] {
				t.Fatalf("stage %d pair %d: device %d vs %d", si, pi,
					plain.Assignments[si][pi], observed.Assignments[si][pi])
			}
		}
	}
}

// TestPublicExportSurface exercises the re-exported writers end to end.
func TestPublicExportSurface(t *testing.T) {
	w := obsWorkload(t)
	cluster := obsCluster(t, w, 2)
	cluster.StartTrace()
	reg := micco.NewMetricsRegistry()
	if _, err := micco.Run(context.Background(), w, micco.NewGroute(), cluster,
		micco.RunOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	events := cluster.StopTrace()

	var prom bytes.Buffer
	if err := micco.WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE micco_run_makespan_seconds gauge", "micco_sim_events_total"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export missing %q", want)
		}
	}

	var nd bytes.Buffer
	if err := micco.WriteDecisions(&nd, reg.Decisions()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(nd.String(), "\n"); lines != w.NumPairs() {
		t.Errorf("NDJSON lines = %d, want %d", lines, w.NumPairs())
	}

	var trace bytes.Buffer
	if err := micco.WriteChromeTraceMerged(&trace, events, reg.Decisions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"ph":"i"`) {
		t.Error("merged trace has no instant events")
	}
}
