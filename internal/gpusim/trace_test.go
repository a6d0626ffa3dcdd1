package gpusim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"micco/internal/obs"
)

func TestTraceRecordsAllEventKinds(t *testing.T) {
	cfg := testConfig(1)
	sz := desc(0, 64, 1).Bytes()
	cfg.MemoryBytes = 3 * sz
	c, _ := NewCluster(cfg)
	c.StartTrace()
	a, b, out := desc(1, 64, 1), desc(2, 64, 1), desc(3, 64, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatal(err)
	}
	// Force an eviction of the dirty output: bring in a fourth tensor.
	if err := c.EnsureResident(0, a); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureResident(0, b); err != nil {
		t.Fatal(err)
	}
	d4 := desc(4, 64, 1)
	c.RegisterHostTensor(d4)
	if err := c.EnsureResident(0, d4); err != nil {
		t.Fatal(err)
	}
	events := c.TraceEvents()
	kinds := map[EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.End < e.Start {
			t.Errorf("event %v ends before it starts", e)
		}
		if e.Device != 0 {
			t.Errorf("event on unexpected device %d", e.Device)
		}
	}
	if kinds[EventKernel] != 1 {
		t.Errorf("kernel events = %d, want 1", kinds[EventKernel])
	}
	if kinds[EventH2D] != 3 { // a, b, d4
		t.Errorf("h2d events = %d, want 3", kinds[EventH2D])
	}
	if kinds[EventEvict] != 1 || kinds[EventD2H] != 1 {
		t.Errorf("evict/d2h events = %d/%d, want 1/1", kinds[EventEvict], kinds[EventD2H])
	}
	// StopTrace drains and stops.
	got := c.StopTrace()
	if len(got) != len(events) {
		t.Error("StopTrace should return the recorded events")
	}
	if c.TraceEvents() != nil {
		t.Error("events should be cleared after StopTrace")
	}
	c.RegisterHostTensor(desc(9, 64, 1))
	if err := c.EnsureResident(0, desc(9, 64, 1)); err != nil {
		t.Fatal(err)
	}
	if len(c.TraceEvents()) != 0 {
		t.Error("recording should have stopped")
	}
}

func TestTraceSurvivesResetWhileEnabled(t *testing.T) {
	c, _ := NewCluster(testConfig(1))
	c.StartTrace()
	d1 := desc(1, 64, 1)
	c.RegisterHostTensor(d1)
	if err := c.EnsureResident(0, d1); err != nil {
		t.Fatal(err)
	}
	if len(c.TraceEvents()) == 0 {
		t.Fatal("no events before reset")
	}
	c.Reset()
	if len(c.TraceEvents()) != 0 {
		t.Error("Reset should clear events")
	}
	c.RegisterHostTensor(d1)
	if err := c.EnsureResident(0, d1); err != nil {
		t.Fatal(err)
	}
	if len(c.TraceEvents()) == 0 {
		t.Error("recording should continue after Reset")
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	events := []Event{
		{Kind: EventH2D, Device: 0, Tensor: 1, Start: 0, End: 0.001, Bytes: 100},
		{Kind: EventKernel, Device: 0, Tensor: 2, Start: 0.001, End: 0.002, FLOPs: 5000},
		{Kind: EventP2P, Device: 1, Tensor: 1, Start: 0.002, End: 0.003, Bytes: 100},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d events, want 3", len(parsed))
	}
	if parsed[0]["ph"] != "X" || parsed[0]["name"] != "h2d t1" {
		t.Errorf("first event malformed: %v", parsed[0])
	}
	// Kernel goes to tid 0, transfers to tid 1.
	if parsed[1]["tid"].(float64) != 0 || parsed[0]["tid"].(float64) != 1 {
		t.Error("thread assignment wrong")
	}
	// Empty event list is still valid JSON.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

func TestTraceSummary(t *testing.T) {
	events := []Event{
		{Kind: EventKernel, Device: 0, Start: 0, End: 0.5},
		{Kind: EventKernel, Device: 0, Start: 0.5, End: 1.5},
		{Kind: EventH2D, Device: 1, Start: 0, End: 0.25},
	}
	var buf bytes.Buffer
	if err := TraceSummary(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kernel") || !strings.Contains(out, "1.5000s") {
		t.Errorf("summary missing aggregates:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 2 devices + totals
		t.Errorf("summary lines = %d, want 4:\n%s", len(lines), out)
	}
	// util%: device 0 is busy the full 1.5s makespan (100%), device 1
	// 0.25/1.5 (16.7%); the totals row reports aggregate utilization
	// 1.75/(2*1.5) = 58.3% and sums the counts.
	if !strings.Contains(lines[1], "100.0") {
		t.Errorf("device 0 util missing:\n%s", out)
	}
	if !strings.Contains(lines[2], "16.7") {
		t.Errorf("device 1 util missing:\n%s", out)
	}
	total := lines[3]
	if !strings.HasPrefix(total, "total") || !strings.Contains(total, "58.3") ||
		!strings.Contains(total, "1.7500s") {
		t.Errorf("totals row wrong:\n%s", out)
	}
	// No events: header plus an all-zero totals row, no division by zero.
	buf.Reset()
	if err := TraceSummary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("empty summary has NaN:\n%s", buf.String())
	}
}

// TestWriteChromeTraceGolden pins the exact serialized bytes (including
// the empty-events case) so the trace format cannot silently drift.
func TestWriteChromeTraceGolden(t *testing.T) {
	events := []Event{
		{Kind: EventH2D, Device: 0, Tensor: 1, Start: 0, End: 0.001, Bytes: 100},
		{Kind: EventKernel, Device: 0, Tensor: 2, Start: 0.001, End: 0.002, FLOPs: 5000},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := "[\n" +
		"  {\"name\":\"h2d t1\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1000.000,\"pid\":0,\"tid\":1," +
		"\"args\":{\"tensor\":1,\"bytes\":100,\"flops\":0}},\n" +
		"  {\"name\":\"kernel t2\",\"ph\":\"X\",\"ts\":1000.000,\"dur\":1000.000,\"pid\":0,\"tid\":0," +
		"\"args\":{\"tensor\":2,\"bytes\":0,\"flops\":5000}}\n" +
		"]\n"
	if got := buf.String(); got != want {
		t.Errorf("chrome trace drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[\n]\n" {
		t.Errorf("empty trace = %q, want %q", got, "[\n]\n")
	}
}

func TestWriteChromeTraceMerged(t *testing.T) {
	events := []Event{
		{Kind: EventKernel, Device: 1, Tensor: 2, Start: 0.001, End: 0.002, FLOPs: 5000},
	}
	decisions := []obs.DecisionRecord{{
		Stage: 0, Pair: 3, Out: 2, Device: 1, Pattern: obs.OneRepeated,
		BoundIndex: 1, Bound: 2, Policy: obs.PolicyComputeCentric,
		Candidates:     []obs.CandidateScore{{Device: 1, Score: 0.001}},
		PredictedBytes: 100, ActualBytes: 100, SimTime: 0.001,
	}}
	var buf bytes.Buffer
	if err := WriteChromeTraceMerged(&buf, events, decisions); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("merged trace invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(parsed))
	}
	inst := parsed[1]
	if inst["ph"] != "i" || inst["name"] != "decide t2" || inst["pid"].(float64) != 1 {
		t.Errorf("instant event malformed: %v", inst)
	}
	args := inst["args"].(map[string]any)
	if args["pattern"] != "oneRepeated" || args["bound_index"].(float64) != 1 ||
		args["predicted_bytes"].(float64) != 100 {
		t.Errorf("instant args malformed: %v", args)
	}
	// Decisions with no events still produce valid JSON (separator logic).
	buf.Reset()
	if err := WriteChromeTraceMerged(&buf, nil, decisions); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("decisions-only trace invalid: %v", err)
	}
}

// TestTraceEventsReturnsCopy guards the fix for the live-slice leak:
// mutating or appending to the returned slice must not corrupt the trace
// still being recorded.
func TestTraceEventsReturnsCopy(t *testing.T) {
	c, _ := NewCluster(testConfig(1))
	c.StartTrace()
	d1, d2 := desc(1, 64, 1), desc(2, 64, 1)
	c.RegisterHostTensor(d1)
	c.RegisterHostTensor(d2)
	if err := c.EnsureResident(0, d1); err != nil {
		t.Fatal(err)
	}
	got := c.TraceEvents()
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1", len(got))
	}
	got[0].Tensor = 999
	_ = append(got, Event{Kind: EventEvict, Tensor: 777})
	if err := c.EnsureResident(0, d2); err != nil {
		t.Fatal(err)
	}
	events := c.StopTrace()
	if len(events) != 2 {
		t.Fatalf("trace corrupted: %d events, want 2", len(events))
	}
	if events[0].Tensor != 1 || events[1].Tensor != 2 {
		t.Errorf("trace corrupted by caller mutation: %+v", events)
	}
}

func TestMemPeakTracksHighWater(t *testing.T) {
	cfg := testConfig(1)
	sz := desc(0, 64, 1).Bytes()
	cfg.MemoryBytes = 2 * sz
	c, _ := NewCluster(cfg)
	for id := uint64(1); id <= 3; id++ {
		d := desc(id, 64, 1)
		c.RegisterHostTensor(d)
		if err := c.EnsureResident(0, d); err != nil {
			t.Fatal(err)
		}
	}
	// Three tensors through a two-tensor pool: peak is the full pool even
	// though eviction keeps current usage at 2*sz as well.
	if got := c.Device(0).MemPeak(); got != 2*sz {
		t.Errorf("MemPeak = %d, want %d", got, 2*sz)
	}
	c.Reset()
	if c.Device(0).MemPeak() != 0 {
		t.Error("Reset should clear MemPeak")
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventKernel: "kernel", EventH2D: "h2d", EventD2H: "d2h",
		EventP2P: "p2p", EventEvict: "evict",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind should still print")
	}
	e := Event{Start: 1, End: 3}
	if e.Duration() != 2 {
		t.Error("duration")
	}
}

// TestTraceBufferOwnership pins who owns the event log when: the slice
// StopTrace returned is the caller's for good, a TraceEvents copy taken
// mid-run is untouched by later events, Reset clears the log without
// stopping the recording, and a cluster that has traced before replays a
// traced stage on one allocation — the log, at the previous trace's length.
func TestTraceBufferOwnership(t *testing.T) {
	c, _ := NewCluster(testConfig(2))
	// replay is one stage under memory pressure (1 MiB pools, 64 KiB
	// tensors): 48 contractions across both devices, from time zero.
	var mid []Event
	replay := func(snapshotMid bool) {
		c.Reset()
		for i := uint64(0); i < 48; i++ {
			a, b, out := desc(3*i+1, 64, 1), desc(3*i+2, 64, 1), desc(3*i+3, 64, 1)
			c.RegisterHostTensor(a)
			c.RegisterHostTensor(b)
			if _, err := c.ExecContraction(int(i%2), a, b, out); err != nil {
				t.Fatal(err)
			}
			if snapshotMid && i == 24 {
				mid = c.TraceEvents()
			}
		}
	}

	c.StartTrace()
	replay(true)
	first := c.StopTrace()
	if len(mid) == 0 || len(mid) >= len(first) || !slices.Equal(mid, first[:len(mid)]) {
		t.Fatalf("mid-run copy (%d events) is not a proper prefix of the finished trace (%d)", len(mid), len(first))
	}
	want := slices.Clone(first)

	c.StartTrace()
	replay(false)
	if got := c.TraceEvents(); !slices.Equal(got, want) {
		t.Error("a second traced run of the same stage recorded different events")
	}
	c.Reset()
	if len(c.TraceEvents()) != 0 {
		t.Error("Reset should clear events")
	}
	if !slices.Equal(first, want) {
		t.Error("the slice StopTrace returned changed under StartTrace + a second run + Reset")
	}
	replay(false)
	if got := c.StopTrace(); !slices.Equal(got, want) {
		t.Error("recording should continue after Reset")
	}
	if !slices.Equal(first, want) || !slices.Equal(mid, want[:len(mid)]) {
		t.Error("earlier traces changed under a later one")
	}

	if allocs := testing.AllocsPerRun(5, func() {
		c.StartTrace()
		replay(false)
		c.StopTrace()
	}); allocs > 1 {
		t.Errorf("traced replay on a cluster that has traced before: %v allocations, want at most 1 (the log)", allocs)
	}
}

// TestRecordLayout pins the two records a watched run stores one of per
// event and per placement: an Event is 48 bytes and no field of it, at any
// depth, is something the garbage collector has to follow; a DecisionRecord
// is 128 bytes and Candidates is its one pointer-bearing field. A field
// added later fails here instead of silently regrowing either store.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 48 {
		t.Errorf("an Event is %d bytes, want 48", size)
	}
	if size := unsafe.Sizeof(obs.DecisionRecord{}); size != 128 {
		t.Errorf("a DecisionRecord is %d bytes, want 128", size)
	}
	var hasPointer func(typ reflect.Type) bool
	hasPointer = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			return true
		case reflect.Array:
			return typ.Len() > 0 && hasPointer(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointer(typ.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	pointerFields := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			if hasPointer(typ.Field(i).Type) {
				names = append(names, typ.Field(i).Name)
			}
		}
		return names
	}
	if got := pointerFields(reflect.TypeOf(Event{})); len(got) != 0 {
		t.Errorf("Event fields %v hold pointers: the trace log would be scanned", got)
	}
	if got := pointerFields(reflect.TypeOf(obs.DecisionRecord{})); !slices.Equal(got, []string{"Candidates"}) {
		t.Errorf("DecisionRecord fields %v hold pointers, want only [Candidates]", got)
	}
}

// TestFaultNotes holds Note to the fmt formats traceFault wrote when the
// note was a string, for faults injected through the cluster's own API and
// for arguments at the ends of their types, and carries every fault code's
// argument, kept in Bytes, through the Chrome trace (against the fmt
// writer) and a flight round trip bit for bit — NaN factors, which print
// as "NaN", excepted. Only the canonical spelling parses.
func TestFaultNotes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type tc struct {
		inject func(c *Cluster) error
		event  Event // built by hand when inject is nil
		want   string
	}
	var cases []tc
	for _, f := range []float64{0.25, 1e-05, 3} {
		cases = append(cases, tc{inject: func(c *Cluster) error { return c.DegradeLink(f) }, want: fmt.Sprintf("link-degrade x%g", f)})
	}
	for _, f := range []float64{1e21, 1.0 / 3, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1), -2, nan, inf, -inf} {
		cases = append(cases, tc{event: Event{Kind: EventFault, Device: -1, Fault: FaultLinkDegrade, Bytes: int64(math.Float64bits(f))}, want: fmt.Sprintf("link-degrade x%g", f)})
	}
	for _, n := range []int64{1, 1<<31 + 5, 3 << 31, 1 << 62} {
		cases = append(cases, tc{inject: func(c *Cluster) error { return c.SetMemoryCapacity(1, n) }, want: fmt.Sprintf("mem-capacity %d", n)})
	}
	for _, n := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		cases = append(cases,
			tc{event: Event{Kind: EventFault, Fault: FaultMemCapacity, Bytes: n}, want: fmt.Sprintf("mem-capacity %d", n)},
			tc{event: Event{Kind: EventFault, Device: -1, Fault: FaultTransientTransfer, Bytes: n}, want: fmt.Sprintf("transient-transfer x%d", n)})
	}
	cases = append(cases,
		tc{inject: func(c *Cluster) error { c.InjectTransientFailures(3); return nil }, want: fmt.Sprintf("transient-transfer x%d", 3)},
		tc{inject: func(c *Cluster) error { return c.FailDevice(1) }, want: "device-loss"},
		tc{inject: func(c *Cluster) error {
			if err := c.FailDevice(1); err != nil {
				return err
			}
			return c.RestoreDevice(1)
		}, want: "device-restore"},
		tc{event: Event{Kind: EventFault, Device: 3, Fault: FaultDeviceLoss}, want: "device-loss"},
	)
	seen := map[FaultCode]bool{}
	for _, tc := range cases {
		e := tc.event
		if tc.inject != nil {
			c, _ := NewCluster(testConfig(2))
			c.StartTrace()
			if err := tc.inject(c); err != nil {
				t.Fatalf("%s: %v", tc.want, err)
			}
			events := c.StopTrace()
			e = events[len(events)-1]
			if e.Kind != EventFault {
				t.Fatalf("%s: the last traced event is a %s", tc.want, e.Kind)
			}
		}
		if got := e.Note(); got != tc.want {
			t.Errorf("Note() = %q, fmt writes %q", got, tc.want)
		}
		seen[e.Fault] = true
		var got, want bytes.Buffer
		if err := writeChromeTrace(&got, []Event{e}, nil); err != nil {
			t.Fatal(err)
		}
		if err := refWriteChromeTrace(&want, []Event{e}, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || !bytes.Contains(got.Bytes(), []byte(`"fault `+tc.want+`"`)) {
			t.Errorf("%q: the trace writes %s, the fmt writer %s", tc.want, got.Bytes(), want.Bytes())
		}
		fe := e.Flight()
		if fe.Note != tc.want || fe.Bytes != 0 {
			t.Errorf("Flight() = note %q, bytes %d; want %q, 0", fe.Note, fe.Bytes, tc.want)
		}
		back, ok := EventFromFlight(fe)
		nanArg := e.Fault == FaultLinkDegrade && math.IsNaN(math.Float64frombits(uint64(e.Bytes)))
		if !ok || back.Fault != e.Fault || back.Bytes != e.Bytes && !nanArg || back.Note() != tc.want {
			t.Errorf("%q: EventFromFlight = %+v, %v; want %+v", tc.want, back, ok, e)
		}
	}
	for code := FaultDeviceLoss; code <= FaultTransientTransfer; code++ {
		if !seen[code] {
			t.Errorf("no case covers %v", code)
		}
	}
	if e, ok := EventFromFlight(obs.FlightEvent{Kind: "h2d", Tensor: 4}); !ok || e.Fault != FaultNone || e.Note() != "" {
		t.Errorf("an ordinary event came back as %+v, %v", e, ok)
	}
	for _, note := range []string{"bogus", "device-lossy", "link-degrade x", "link-degrade x0.250", "link-degrade 0.25",
		"mem-capacity +3", "mem-capacity 03", "mem-capacity 1e3", "transient-transfer 3", "transient-transfer x99999999999999999999"} {
		if _, ok := EventFromFlight(obs.FlightEvent{Kind: "fault", Note: note}); ok {
			t.Errorf("note %q parsed; only what Note writes should", note)
		}
	}
}
