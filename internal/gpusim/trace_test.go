package gpusim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
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
	kinds := map[obs.EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.End < e.Start {
			t.Errorf("event %v ends before it starts", e)
		}
		if e.Device != 0 {
			t.Errorf("event on unexpected device %d", e.Device)
		}
	}
	if kinds[obs.EventKernel] != 1 {
		t.Errorf("kernel events = %d, want 1", kinds[obs.EventKernel])
	}
	if kinds[obs.EventH2D] != 3 { // a, b, d4
		t.Errorf("h2d events = %d, want 3", kinds[obs.EventH2D])
	}
	if kinds[obs.EventEvict] != 1 || kinds[obs.EventD2H] != 1 {
		t.Errorf("evict/d2h events = %d/%d, want 1/1", kinds[obs.EventEvict], kinds[obs.EventD2H])
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
	events := []obs.Event{
		{Kind: obs.EventH2D, Device: 0, Tensor: 1, Start: 0, End: 0.001, Bytes: 100},
		{Kind: obs.EventKernel, Device: 0, Tensor: 2, Start: 0.001, End: 0.002, FLOPs: 5000},
		{Kind: obs.EventP2P, Device: 1, Tensor: 1, Start: 0.002, End: 0.003, Bytes: 100},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMerged(&buf, events, nil); err != nil {
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
	if err := WriteChromeTraceMerged(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// TestWriteChromeTraceGolden pins the exact serialized bytes (including
// the empty-events case) so the trace format cannot silently drift.
func TestWriteChromeTraceGolden(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EventH2D, Device: 0, Tensor: 1, Start: 0, End: 0.001, Bytes: 100},
		{Kind: obs.EventKernel, Device: 0, Tensor: 2, Start: 0.001, End: 0.002, FLOPs: 5000},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMerged(&buf, events, nil); err != nil {
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
	if err := WriteChromeTraceMerged(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[\n]\n" {
		t.Errorf("empty trace = %q, want %q", got, "[\n]\n")
	}
}

func TestWriteChromeTraceMerged(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EventKernel, Device: 1, Tensor: 2, Start: 0.001, End: 0.002, FLOPs: 5000},
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
	_ = append(got, obs.Event{Kind: obs.EventEvict, Tensor: 777})
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
	want := map[obs.EventKind]string{
		obs.EventKernel: "kernel", obs.EventH2D: "h2d", obs.EventD2H: "d2h",
		obs.EventP2P: "p2p", obs.EventEvict: "evict",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if obs.EventKind(9).String() == "" {
		t.Error("unknown kind should still print")
	}
	e := obs.Event{Start: 1, End: 3}
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
	var mid []obs.Event
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
// event and per placement: an obs.Event is 48 bytes and no field of it, at any
// depth, is something the garbage collector has to follow; a DecisionRecord
// is 128 bytes and Candidates is its one pointer-bearing field. Beside them
// it pins the residency record every placement reads and writes, at 16
// bytes: four to a cache line; the run reference and host record the index
// keeps per slot beside it, at 8 and 16 (where the host copy is, not which
// tensor: that is the slot's); and the block every resident copy is, at 40
// (its size, not the tensor's 32-byte descriptor). A field added later
// fails here instead of silently regrowing any of them.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(tensorRec{}); size != 16 {
		t.Errorf("a tensorRec is %d bytes, want 16", size)
	}
	if run, host := unsafe.Sizeof(runRef{}), unsafe.Sizeof(hostRec{}); run != 8 || host != 16 {
		t.Errorf("a runRef is %d bytes and a hostRec %d, want 8 and 16", run, host)
	}
	if size := unsafe.Sizeof(block{}); size != 40 {
		t.Errorf("a block is %d bytes, want 40", size)
	}
	if size := unsafe.Sizeof(obs.Event{}); size != 48 {
		t.Errorf("an obs.Event is %d bytes, want 48", size)
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
	if got := pointerFields(reflect.TypeOf(obs.Event{})); len(got) != 0 {
		t.Errorf("obs.Event fields %v hold pointers: the trace log would be scanned", got)
	}
	if got := pointerFields(reflect.TypeOf(obs.DecisionRecord{})); !slices.Equal(got, []string{"Candidates"}) {
		t.Errorf("DecisionRecord fields %v hold pointers, want only [Candidates]", got)
	}
}

// TestFaultNotes holds Note to the fmt formats traceFault wrote when the
// note was a string, for faults injected through the cluster's own API and
// for arguments at the ends of their types, and carries every fault code's
// argument, kept in Bytes, through the Chrome trace (against the fmt
// writer) and the flight dump's JSON.
func TestFaultNotes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type tc struct {
		inject func(c *Cluster) error
		event  obs.Event // built by hand when inject is nil
		want   string
	}
	var cases []tc
	for _, f := range []float64{0.25, 1e-05, 3} {
		cases = append(cases, tc{inject: func(c *Cluster) error { return c.DegradeLink(f) }, want: fmt.Sprintf("link-degrade x%g", f)})
	}
	for _, f := range []float64{1e21, 1.0 / 3, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1), -2, nan, inf, -inf} {
		cases = append(cases, tc{event: obs.Event{Kind: obs.EventFault, Device: -1, Fault: obs.FaultLinkDegrade, Bytes: int64(math.Float64bits(f))}, want: fmt.Sprintf("link-degrade x%g", f)})
	}
	for _, n := range []int64{1, 1<<31 + 5, 3 << 31, 1 << 62} {
		cases = append(cases, tc{inject: func(c *Cluster) error { return c.SetMemoryCapacity(1, n) }, want: fmt.Sprintf("mem-capacity %d", n)})
	}
	for _, n := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		cases = append(cases,
			tc{event: obs.Event{Kind: obs.EventFault, Fault: obs.FaultMemCapacity, Bytes: n}, want: fmt.Sprintf("mem-capacity %d", n)},
			tc{event: obs.Event{Kind: obs.EventFault, Device: -1, Fault: obs.FaultTransientTransfer, Bytes: n}, want: fmt.Sprintf("transient-transfer x%d", n)})
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
		tc{event: obs.Event{Kind: obs.EventFault, Device: 3, Fault: obs.FaultDeviceLoss}, want: "device-loss"},
	)
	seen := map[obs.FaultCode]bool{}
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
			if e.Kind != obs.EventFault {
				t.Fatalf("%s: the last traced event is a %s", tc.want, e.Kind)
			}
		}
		if got := e.Note(); got != tc.want {
			t.Errorf("Note() = %q, fmt writes %q", got, tc.want)
		}
		seen[e.Fault] = true
		var got, want bytes.Buffer
		if err := writeChromeTrace(&got, []obs.Event{e}, nil); err != nil {
			t.Fatal(err)
		}
		if err := refWriteChromeTrace(&want, []obs.Event{e}, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || !bytes.Contains(got.Bytes(), []byte(`"fault `+tc.want+`"`)) {
			t.Errorf("%q: the trace writes %s, the fmt writer %s", tc.want, got.Bytes(), want.Bytes())
		}
		// A flight dump writes the note and no bytes: the argument is in the note.
		if js, err := json.Marshal(e); err != nil || !bytes.HasSuffix(js, []byte(`,"note":"`+tc.want+`"}`)) || bytes.Contains(js, []byte(`"bytes"`)) {
			t.Errorf("%q: the flight JSON is %s, %v", tc.want, js, err)
		}
	}
	for code := obs.FaultDeviceLoss; code <= obs.FaultTransientTransfer; code++ {
		if !seen[code] {
			t.Errorf("no case covers %v", code)
		}
	}
}
