package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"micco/internal/obs"
)

func ev(kind obs.EventKind, dev int, tensor uint64, start, end float64) obs.Event {
	return obs.Event{Kind: kind, Device: int32(dev), Tensor: tensor, Start: start, End: end}
}

// checkPartition asserts the critical-path invariant: segments are
// chronological, contiguous with exact float equality, start at 0, and
// end at the makespan.
func checkPartition(t *testing.T, cp *CriticalPath) {
	t.Helper()
	if len(cp.Segments) == 0 {
		if cp.Makespan != 0 {
			t.Fatalf("no segments over makespan %v", cp.Makespan)
		}
		return
	}
	if first := cp.Segments[0]; first.Start != 0 {
		t.Errorf("first segment starts at %v, want 0", first.Start)
	}
	if last := cp.Segments[len(cp.Segments)-1]; last.End != cp.Makespan {
		t.Errorf("last segment ends at %v, want makespan %v", last.End, cp.Makespan)
	}
	for i := 1; i < len(cp.Segments); i++ {
		if cp.Segments[i].Start != cp.Segments[i-1].End {
			t.Errorf("segment %d starts at %v, previous ends at %v", i, cp.Segments[i].Start, cp.Segments[i-1].End)
		}
	}
	for i, s := range cp.Segments {
		if s.Duration() <= 0 {
			t.Errorf("segment %d has non-positive duration: %+v", i, s)
		}
	}
}

func TestCriticalPathChainsInProgressWork(t *testing.T) {
	// Overlapping timelines: the chain always follows whatever was still
	// running at the cursor, clipping segments so they tile exactly, and
	// never emits idle while any device is busy.
	events := []obs.Event{
		ev(obs.EventH2D, 0, 10, 0, 2),
		ev(obs.EventKernel, 0, 11, 2, 5),
		ev(obs.EventKernel, 1, 20, 1, 3),
		ev(obs.EventKernel, 1, 21, 4, 6),
	}
	cp := CriticalPathOf(events, 6)
	checkPartition(t, cp)
	want := []Segment{
		{Start: 0, End: 1, Kind: "h2d", Device: 0, Tensor: 10},
		{Start: 1, End: 2, Kind: "kernel", Device: 1, Tensor: 20},
		{Start: 2, End: 4, Kind: "kernel", Device: 0, Tensor: 11},
		{Start: 4, End: 6, Kind: "kernel", Device: 1, Tensor: 21},
	}
	if len(cp.Segments) != len(want) {
		t.Fatalf("segments = %+v, want %+v", cp.Segments, want)
	}
	for i := range want {
		if cp.Segments[i] != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, cp.Segments[i], want[i])
		}
	}
	// Blame: kernel 5s, h2d 1s; no idle anywhere.
	if cp.ByKind[0].Key != "kernel" || cp.ByKind[0].Seconds != 5 {
		t.Errorf("ByKind = %+v", cp.ByKind)
	}
	var total float64
	for _, s := range cp.ByResource {
		total += s.Seconds
	}
	if total != cp.Makespan {
		t.Errorf("resource shares sum to %v, want %v", total, cp.Makespan)
	}
}

func TestCriticalPathBlamesIdleOnSuccessor(t *testing.T) {
	// A gap where no device is busy: [1,2]. The idle segment takes the
	// device of the work it delayed (the chronological successor, d1).
	events := []obs.Event{
		ev(obs.EventKernel, 0, 1, 0, 1),
		ev(obs.EventKernel, 1, 2, 2, 4),
	}
	cp := CriticalPathOf(events, 4)
	checkPartition(t, cp)
	want := []Segment{
		{Start: 0, End: 1, Kind: "kernel", Device: 0, Tensor: 1},
		{Start: 1, End: 2, Kind: "idle", Device: 1},
		{Start: 2, End: 4, Kind: "kernel", Device: 1, Tensor: 2},
	}
	if len(cp.Segments) != len(want) {
		t.Fatalf("segments = %+v, want %+v", cp.Segments, want)
	}
	for i := range want {
		if cp.Segments[i] != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, cp.Segments[i], want[i])
		}
	}
}

func TestCriticalPathNoEvents(t *testing.T) {
	cp := CriticalPathOf(nil, 3.5)
	checkPartition(t, cp)
	if len(cp.Segments) != 1 || cp.Segments[0].Kind != "idle" || cp.Segments[0].Device != -1 {
		t.Fatalf("segments = %+v, want one idle segment on device -1", cp.Segments)
	}
}

func TestCriticalPathSkipsFaultsAndTrailingGap(t *testing.T) {
	events := []obs.Event{
		ev(obs.EventKernel, 2, 1, 0, 2),
		{Kind: obs.EventFault, Device: 2, Start: 1, End: 1, Fault: obs.FaultDeviceLoss},
	}
	// Makespan extends past the last event: trailing idle keeps the
	// predecessor's device (no successor exists).
	cp := CriticalPathOf(events, 3)
	checkPartition(t, cp)
	if len(cp.Segments) != 2 {
		t.Fatalf("segments = %+v", cp.Segments)
	}
	if s := cp.Segments[1]; s.Kind != "idle" || s.Device != 2 {
		t.Errorf("trailing segment = %+v, want idle on device 2", s)
	}
}

func TestCriticalPathDeterministicTieBreak(t *testing.T) {
	// Two identical-interval kernels on different devices: the lower
	// device must win, in any input order.
	a := []obs.Event{ev(obs.EventKernel, 1, 5, 0, 2), ev(obs.EventKernel, 0, 9, 0, 2)}
	b := []obs.Event{a[1], a[0]}
	cpa, cpb := CriticalPathOf(a, 2), CriticalPathOf(b, 2)
	if cpa.Segments[0] != cpb.Segments[0] {
		t.Fatalf("order-dependent path: %+v vs %+v", cpa.Segments, cpb.Segments)
	}
	if cpa.Segments[0].Device != 0 {
		t.Errorf("tie broke to device %d, want 0", cpa.Segments[0].Device)
	}
}

func TestStageWaterfall(t *testing.T) {
	spans := []obs.Span{
		{Name: "run"},
		{Name: "stage", Attrs: map[string]string{"index": "1", "pairs": "2", "sim_start_s": "2", "sim_end_s": "4"}},
		{Name: "stage", Attrs: map[string]string{"index": "0", "pairs": "3", "sim_start_s": "0", "sim_end_s": "2"}},
		{Name: "stage", Attrs: map[string]string{"index": "9"}}, // no sim attrs: skipped
	}
	events := []obs.Event{
		ev(obs.EventH2D, 0, 1, 0, 1),
		ev(obs.EventKernel, 0, 2, 1, 3), // spans the stage boundary: split 1s/1s
		ev(obs.EventEvict, 1, 3, 2.5, 3),
	}
	rows := StageWaterfall(spans, events, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	r0, r1 := rows[0], rows[1]
	if r0.Index != 0 || r0.Pairs != 3 || r0.TransferSeconds != 1 || r0.ComputeSeconds != 1 {
		t.Errorf("stage 0 = %+v", r0)
	}
	if r0.Utilization != 2.0/(2*2) {
		t.Errorf("stage 0 util = %v", r0.Utilization)
	}
	if r1.Index != 1 || r1.ComputeSeconds != 1 || r1.EvictSeconds != 0.5 {
		t.Errorf("stage 1 = %+v", r1)
	}
}

func TestSummarizeDrift(t *testing.T) {
	recs := []obs.DecisionRecord{
		{Policy: obs.PolicyComputeCentric, Pattern: obs.TwoNew, PredictedBytes: 100, ActualBytes: 100},
		{Policy: obs.PolicyComputeCentric, Pattern: obs.TwoNew, PredictedBytes: 100, ActualBytes: 160},
		{Policy: obs.PolicyComputeCentric, Pattern: obs.OneRepeated, PredictedBytes: 50, ActualBytes: 30},
		{Policy: obs.PolicyMemoryEviction, Pattern: obs.TwoNew, PredictedBytes: 10, ActualBytes: 10, Recovery: true},
	}
	d := SummarizeDrift(recs)
	if len(d.Groups) != 3 {
		t.Fatalf("groups = %+v", d.Groups)
	}
	// Sorted by policy then pattern: compute-centric/oneRepeated first.
	g := d.Groups[0]
	if g.Policy != "compute-centric" || g.Pattern != "oneRepeated" || g.BiasBytes != -20 || g.AbsErrBytes != 20 {
		t.Errorf("group 0 = %+v", g)
	}
	g = d.Groups[1]
	if g.Pattern != "twoNew" || g.Count != 2 || g.Exact != 1 || g.BiasBytes != 60 {
		t.Errorf("group 1 = %+v", g)
	}
	if d.Total.Count != 4 || d.Total.Recovery != 1 || d.Total.AbsErrBytes != 80 {
		t.Errorf("total = %+v", d.Total)
	}
	if got := d.Groups[1].MeanAbsErrBytes(); got != 30 {
		t.Errorf("mean abs err = %v, want 30", got)
	}
}

func TestDiffSnapshots(t *testing.T) {
	old := &obs.Snapshot{
		Counters: map[string]float64{"a_total": 1, "b_total": 2},
		Gauges:   map[string]float64{"g": 5},
		Histograms: map[string]obs.HistogramSnapshot{
			"h": {Sum: 1.5, Count: 3},
		},
	}
	new := &obs.Snapshot{
		Counters: map[string]float64{"a_total": 1, "c_total": 7},
		Gauges:   map[string]float64{"g": 6},
		Histograms: map[string]obs.HistogramSnapshot{
			"h": {Sum: 1.5, Count: 4},
		},
	}
	d := DiffSnapshots(old, new)
	if !d.Changed() {
		t.Fatal("diff should report changes")
	}
	// b removed, c added (sorted by series name).
	if len(d.Counters) != 2 || !d.Counters[0].Removed || d.Counters[0].Series != "b_total" ||
		!d.Counters[1].Added || d.Counters[1].Series != "c_total" {
		t.Errorf("counters = %+v", d.Counters)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Delta != 1 {
		t.Errorf("gauges = %+v", d.Gauges)
	}
	// h sum unchanged, h count changed.
	if len(d.Histograms) != 1 || d.Histograms[0].Series != "h count" || d.Histograms[0].Delta != 1 {
		t.Errorf("histograms = %+v", d.Histograms)
	}
	// a_total and "h sum" unchanged.
	if d.Unchanged != 2 {
		t.Errorf("unchanged = %d, want 2", d.Unchanged)
	}
	if same := DiffSnapshots(old, old); same.Changed() {
		t.Errorf("self-diff changed: %+v", same)
	}
}

func TestReportRenderingDeterministic(t *testing.T) {
	in := Input{
		Scheduler: "micco",
		Workload:  "w",
		Devices:   2,
		Makespan:  6,
		Events: []obs.Event{
			ev(obs.EventH2D, 0, 10, 0, 2),
			ev(obs.EventKernel, 1, 20, 2, 6),
		},
		Decisions: []obs.DecisionRecord{
			{Policy: obs.PolicyRoundRobin, Pattern: obs.TwoNew, PredictedBytes: 5, ActualBytes: 9},
		},
		Snapshot: &obs.Snapshot{Spans: []obs.Span{
			{Name: "stage", Attrs: map[string]string{"index": "0", "pairs": "1", "sim_start_s": "0", "sim_end_s": "6"}},
		}},
	}
	var t1, t2, j1 bytes.Buffer
	r := Build(in)
	if err := r.WriteText(&t1); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := Build(in).WriteText(&t2); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if t1.String() != t2.String() {
		t.Error("text rendering not deterministic")
	}
	for _, want := range []string{"critical path", "stage waterfall", "prediction drift", "makespan 6.000000s"} {
		if !strings.Contains(t1.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, t1.String())
		}
	}
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(j1.Bytes(), &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if back.Makespan != 6 || back.CriticalPath == nil || len(back.Stages) != 1 || back.Drift == nil {
		t.Errorf("round-tripped report = %+v", back)
	}
}
