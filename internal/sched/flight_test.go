package sched_test

import (
	"bytes"
	"context"
	"maps"
	"os"
	"reflect"
	"testing"

	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// flightGolden is the JSON of the dump TestFlightDumpIsRegistryTail's
// device loss takes, wall-clock span fields blanked.
const flightGolden = "testdata/flight_dump.golden.json"

// TestFlightDumpIsRegistryTail pins what the flight recorder hands out. A
// watched run loses a device, so the engine dumps; a second, longer run on
// the same registry then overruns both tail lengths. The dump and a later
// snapshot must each hold the registry's own last DefFlightDecisions
// decision records and DefFlightSpans spans as of when they were taken,
// with totals equal to the store lengths, and the dump's JSON must match
// the golden byte for byte.
func TestFlightDumpIsRegistryTail(t *testing.T) {
	reg := obs.New()
	fr := obs.NewFlightRecorder()
	reg.SetFlightRecorder(fr)

	w := numericWorkload(t, 7)
	const lossPair = 3
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: lossPair}}}
	if _, err := sched.Run(context.Background(), w, core.NewNaive(), newClusterT(t, 4),
		sched.Options{Obs: reg, FaultPlan: plan}); err != nil {
		t.Fatal(err)
	}
	dump := fr.LastDump()
	if dump == nil {
		t.Fatal("the device loss took no flight dump")
	}
	// At the loss the registry held stage 0's records and span and the
	// records of stage 1's first lossPair pairs.
	decAtLoss, spansAtLoss := len(w.Stages[0].Pairs)+lossPair, 1

	long, err := workload.Generate(workload.Config{
		Seed: 8, Stages: obs.DefFlightSpans + 64, VectorSize: 4, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(context.Background(), long, core.NewNaive(), newClusterT(t, 4),
		sched.Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	decisions, spans := reg.Decisions(), reg.Spans()
	if len(decisions) <= obs.DefFlightDecisions || len(spans) <= obs.DefFlightSpans {
		t.Fatalf("registry holds %d records and %d spans: the second run no longer overruns the tails",
			len(decisions), len(spans))
	}
	checkTail(t, "dump", dump, decisions[:decAtLoss], spans[:spansAtLoss])
	checkTail(t, "snapshot", fr.Snapshot(), decisions, spans)

	var got bytes.Buffer
	if err := blankWallClock(dump).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(flightGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flight dump JSON differs from %s:\n%s", flightGolden, got.Bytes())
	}
}

// checkTail requires s to hold the last DefFlightDecisions records of
// decisions and the last DefFlightSpans of spans, and their lengths as its
// totals.
func checkTail(t *testing.T, what string, s *obs.FlightSnapshot, decisions []obs.DecisionRecord, spans []obs.Span) {
	t.Helper()
	if s.TotalDecisions != uint64(len(decisions)) || s.TotalSpans != uint64(len(spans)) {
		t.Errorf("%s totals = %d decisions, %d spans; want %d, %d",
			what, s.TotalDecisions, s.TotalSpans, len(decisions), len(spans))
	}
	if want := decisions[max(0, len(decisions)-obs.DefFlightDecisions):]; !reflect.DeepEqual(s.Decisions, want) {
		t.Errorf("%s holds %d decision records, not the registry's last %d", what, len(s.Decisions), len(want))
	}
	if want := spans[max(0, len(spans)-obs.DefFlightSpans):]; !reflect.DeepEqual(s.Spans, want) {
		t.Errorf("%s holds %d spans, not the registry's last %d", what, len(s.Spans), len(want))
	}
}

// blankWallClock returns a copy of s whose spans carry no wall-clock
// reading: no start or end, and the stage span's phase timings emptied
// (their keys stay, so the golden still pins the attribute set).
func blankWallClock(s *obs.FlightSnapshot) *obs.FlightSnapshot {
	c := *s
	c.Spans = make([]obs.Span, len(s.Spans))
	for i, sp := range s.Spans {
		sp.Start, sp.End = 0, 0
		sp.Attrs = maps.Clone(sp.Attrs)
		for _, k := range []string{"schedule_s", "simulate_s", "numeric_s"} {
			if _, ok := sp.Attrs[k]; ok {
				sp.Attrs[k] = ""
			}
		}
		c.Spans[i] = sp
	}
	return &c
}
