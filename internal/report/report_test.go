package report

import (
	"bytes"
	"encoding/json"
	"slices"
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
	// The groups come out of a map, so one call can put two groups that tie
	// on pattern in either order: check the order over many calls, with the
	// records in both orders.
	rev := slices.Clone(recs)
	slices.Reverse(rev)
	for i := range 64 {
		in := recs
		if i%2 == 1 {
			in = rev
		}
		var order []string
		for _, g := range SummarizeDrift(in).Groups {
			order = append(order, g.Policy+"/"+g.Pattern)
		}
		if got, want := strings.Join(order, " "), "compute-centric/oneRepeated compute-centric/twoNew memory-eviction/twoNew"; got != want {
			t.Fatalf("call %d: groups in order %s, want %s", i, got, want)
		}
	}
	d := SummarizeDrift(recs)
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

// TestBuildInfersMakespanAndDevices builds from inputs whose Makespan and
// Devices are zero, so both come from the events: the latest end, and one
// past the highest device, device 0 included. Set, either one only widens.
// No input has stages, so no text has a waterfall; only one with decisions
// has a drift section.
func TestBuildInfersMakespanAndDevices(t *testing.T) {
	events := []obs.Event{ev(obs.EventKernel, 0, 1, 0, 2), ev(obs.EventH2D, 2, 2, 1, 7), ev(obs.EventKernel, 1, 3, 3, 5)}
	for _, c := range []struct {
		name     string
		in       Input
		makespan float64
		devices  int
		segments int
		noPath   bool
	}{
		{name: "both inferred", in: Input{Events: events}, makespan: 7, devices: 3, segments: 2},
		{name: "device 0 alone", in: Input{Events: events[:1]}, makespan: 2, devices: 1, segments: 1},
		{name: "set above the events", in: Input{Events: events, Makespan: 9, Devices: 5}, makespan: 9, devices: 5, segments: 3},
		{name: "set below the events", in: Input{Events: events, Makespan: 4, Devices: 2}, makespan: 7, devices: 3, segments: 2},
		{name: "a makespan and no events", in: Input{Makespan: 0.5}, makespan: 0.5, segments: 1},
		{name: "nothing", in: Input{}, noPath: true},
		{name: "decisions and no events", in: Input{Decisions: []obs.DecisionRecord{{Policy: obs.PolicyRoundRobin}}}, noPath: true},
	} {
		r := Build(c.in)
		if r.Makespan != c.makespan || r.Devices != c.devices {
			t.Errorf("%s: makespan %v and %d devices, want %v and %d", c.name, r.Makespan, r.Devices, c.makespan, c.devices)
		}
		var text bytes.Buffer
		if err := r.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if drift := len(c.in.Decisions) > 0; (r.Drift != nil) != drift || strings.Contains(text.String(), "prediction drift") != drift || strings.Contains(text.String(), "stage waterfall") {
			t.Errorf("%s: drift %+v, want one only for decisions, and no waterfall, in\n%s", c.name, r.Drift, text.String())
		}
		if c.noPath {
			if r.CriticalPath != nil {
				t.Errorf("%s: a path %+v", c.name, r.CriticalPath)
			}
			continue
		}
		if r.CriticalPath == nil || r.CriticalPath.Makespan != c.makespan || len(r.CriticalPath.Segments) != c.segments {
			t.Errorf("%s: path %+v, want %d segments over %v", c.name, r.CriticalPath, c.segments, c.makespan)
			continue
		}
		checkPartition(t, r.CriticalPath)
	}
}

// TestDiffWriteText pins the text rendering of a diff: a section per
// kind with its changed count, the added and removed marks, the
// unchanged count, and the one line of a diff without changes.
func TestDiffWriteText(t *testing.T) {
	old := &obs.Snapshot{
		Counters:   map[string]float64{"a_total": 1, "b_total": 2, "d_total": 4},
		Gauges:     map[string]float64{"g": 5, "same": 1},
		Histograms: map[string]obs.HistogramSnapshot{"h": {Sum: 1.5, Count: 3}},
	}
	new := &obs.Snapshot{
		Counters:   map[string]float64{"a_total": 1, "c_total": 7, "d_total": 2.5},
		Gauges:     map[string]float64{"g": 6, "same": 1},
		Histograms: map[string]obs.HistogramSnapshot{"h": {Sum: 1.5, Count: 4}},
	}
	const want = `counters (3 changed)
  b_total                                                                         2 ->                0  (-2)  [removed]
  c_total                                                                         0 ->                7  (+7)  [added]
  d_total                                                                         4 ->              2.5  (-1.5)
gauges (1 changed)
  g                                                                               5 ->                6  (+1)
histograms (1 changed)
  h count                                                                         3 ->                4  (+1)
3 series unchanged
`
	for _, c := range []struct {
		name string
		d    *Diff
		want string
	}{
		{"changed", DiffSnapshots(old, new), want},
		{"gauges only", &Diff{Gauges: []DiffRow{{Series: "g", Old: 1, New: 2, Delta: 1}}}, "gauges (1 changed)\n  g" + strings.Repeat(" ", 63) + "                1 ->                2  (+1)\n0 series unchanged\n"},
		{"one histogram series only", &Diff{Histograms: []DiffRow{{Series: "h count", Old: 3, New: 4, Delta: 1}}}, "histograms (1 changed)\n  h count" + strings.Repeat(" ", 57) + "                3 ->                4  (+1)\n0 series unchanged\n"},
		{"none", DiffSnapshots(old, old), "no differences (7 series unchanged)\n"},
	} {
		var b bytes.Buffer
		if err := c.d.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.want || c.d.Changed() != (c.name != "none") {
			t.Errorf("%s: WriteText wrote\n%s\nwant\n%s\n(changed %v)", c.name, b.String(), c.want, c.d.Changed())
		}
	}
}
