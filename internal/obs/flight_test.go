package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestFlightRingOverwritesOldest(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.record(FlightEvent{Kind: "kernel", Tensor: uint64(i)})
	}
	events, total := r.snapshot()
	if total != 10 {
		t.Errorf("total = %d, want 10", total)
	}
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	// Oldest-first tail: tensors 6,7,8,9.
	for i, e := range events {
		if want := uint64(6 + i); e.Tensor != want {
			t.Errorf("events[%d].Tensor = %d, want %d", i, e.Tensor, want)
		}
	}
}

func TestFlightSnapshotBeforeWrap(t *testing.T) {
	reg, fr := New(), NewFlightRecorder()
	reg.SetFlightRecorder(fr)
	fr.RecordEvent(FlightEvent{Kind: "h2d", Tensor: 1})
	reg.RecordDecision(&DecisionRecord{Out: 2})
	reg.StartSpan("stage", nil).End()
	s := fr.Snapshot()
	if len(s.Events) != 1 || s.TotalEvents != 1 {
		t.Errorf("events = %d/%d, want 1/1", len(s.Events), s.TotalEvents)
	}
	if len(s.Decisions) != 1 || s.Decisions[0].Out != 2 {
		t.Errorf("decisions = %+v", s.Decisions)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "stage" {
		t.Errorf("spans = %+v", s.Spans)
	}
}

func TestFlightDump(t *testing.T) {
	fr := NewFlightRecorder()
	if fr.LastDump() != nil {
		t.Fatal("LastDump before any dump should be nil")
	}
	fr.RecordEvent(FlightEvent{Kind: "evict", Tensor: 7})
	d := fr.Dump("device-loss device=3")
	if d.Reason != "device-loss device=3" || len(d.Events) != 1 {
		t.Errorf("dump = %+v", d)
	}
	if got := fr.LastDump(); got != d {
		t.Errorf("LastDump = %p, want the dump just taken %p", got, d)
	}
	// A later event does not mutate the frozen dump.
	fr.RecordEvent(FlightEvent{Kind: "kernel", Tensor: 8})
	if len(fr.LastDump().Events) != 1 {
		t.Error("dump grew after later events")
	}

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back FlightSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("dump JSON does not round-trip: %v", err)
	}
	if back.Reason != d.Reason || len(back.Events) != 1 || back.Events[0].Tensor != 7 {
		t.Errorf("round-tripped dump = %+v", back)
	}
	// A recorder attached to no registry has no decisions or spans to
	// show, and says so with empty lists, not nulls.
	if !bytes.Contains(buf.Bytes(), []byte(`"decisions": [],`)) || !bytes.Contains(buf.Bytes(), []byte(`"spans": [],`)) {
		t.Errorf("unattached dump JSON lacks empty decision and span lists:\n%s", buf.Bytes())
	}
}

func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	fr.RecordEvent(FlightEvent{})
	if fr.Snapshot() != nil || fr.Dump("x") != nil || fr.LastDump() != nil {
		t.Error("nil recorder should snapshot/dump as nil")
	}
	var r *Registry
	r.SetFlightRecorder(nil)
	if r.FlightRecorder() != nil {
		t.Error("nil registry should report nil recorder")
	}
}

func TestRegistryFeedsFlightRecorder(t *testing.T) {
	r := New()
	if r.FlightRecorder() != nil {
		t.Fatal("fresh registry should have no recorder")
	}
	fr := NewFlightRecorder()
	r.SetFlightRecorder(fr)
	if r.FlightRecorder() != fr {
		t.Fatal("recorder not attached")
	}
	r.RecordDecision(&DecisionRecord{Out: 11, Policy: "p"})
	sp := r.StartSpan("run", nil)
	r.StartSpan("stage", sp).End()
	sp.End()
	s := fr.Snapshot()
	if len(s.Decisions) != 1 || s.Decisions[0].Out != 11 {
		t.Errorf("recorder decisions = %+v, want the registry's record", s.Decisions)
	}
	// Spans land in completion order: stage before run.
	if len(s.Spans) != 2 || s.Spans[0].Name != "stage" || s.Spans[1].Name != "run" {
		t.Errorf("recorder spans = %+v, want [stage run]", s.Spans)
	}
	// Detach: the simulator's probe finds no recorder to feed events to,
	// and the recorder still reads the registry it was attached to.
	r.SetFlightRecorder(nil)
	if r.FlightRecorder() != nil {
		t.Error("recorder still attached after SetFlightRecorder(nil)")
	}
	r.RecordDecision(&DecisionRecord{Out: 12})
	if s := fr.Snapshot(); s.TotalDecisions != 2 || s.Decisions[1].Out != 12 {
		t.Errorf("detached recorder snapshot = %+v, want the registry's two records", s.Decisions)
	}
}

// TestFlightRecorderAllocs pins the recorder's per-event cost: recording
// into a built ring allocates nothing, and the disabled paths (no recorder
// attached, nil recorder) allocate nothing either — the acceptance bar for
// "always-on" observability.
func TestFlightRecorderAllocs(t *testing.T) {
	fr := NewFlightRecorder()
	ev := FlightEvent{Kind: "kernel", Device: 1, Tensor: 42, Start: 1, End: 2, FLOPs: 100}
	if n := testing.AllocsPerRun(200, func() { fr.RecordEvent(ev) }); n != 0 {
		t.Errorf("RecordEvent allocs/op = %v, want 0", n)
	}
	var nilFR *FlightRecorder
	if n := testing.AllocsPerRun(200, func() { nilFR.RecordEvent(ev) }); n != 0 {
		t.Errorf("nil RecordEvent allocs/op = %v, want 0", n)
	}
	r := New() // no recorder attached: probe is one atomic load
	if n := testing.AllocsPerRun(200, func() {
		if fr := r.FlightRecorder(); fr != nil {
			fr.RecordEvent(ev)
		}
	}); n != 0 {
		t.Errorf("unattached probe allocs/op = %v, want 0", n)
	}
}

// TestFlightSnapshotUnderWriters snapshots while another goroutine records
// decisions and spans past both tail lengths: every snapshot must be one
// consistent tail — as long as its totals allow, ending on the record its
// total names — and under -race this shows the registry's lock covers the
// copy.
func TestFlightSnapshotUnderWriters(t *testing.T) {
	r, fr := New(), NewFlightRecorder()
	r.SetFlightRecorder(fr)
	const total = 3 * DefFlightDecisions
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range total {
			r.RecordDecision(&DecisionRecord{Pair: i})
			if i%4 == 0 {
				r.StartSpan("stage", nil).End()
			}
		}
	}()
	for n := uint64(0); n < total; {
		s := fr.Snapshot()
		n = s.TotalDecisions
		if len(s.Decisions) != int(min(n, DefFlightDecisions)) {
			t.Fatalf("snapshot of %d records holds %d", n, len(s.Decisions))
		}
		if n > 0 && s.Decisions[len(s.Decisions)-1].Pair != int(n-1) {
			t.Fatalf("snapshot of %d records ends on pair %d", n, s.Decisions[len(s.Decisions)-1].Pair)
		}
		if len(s.Spans) != int(min(s.TotalSpans, DefFlightSpans)) {
			t.Fatalf("snapshot of %d spans holds %d", s.TotalSpans, len(s.Spans))
		}
	}
	<-done
}
