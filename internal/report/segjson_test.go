package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// randomSegment draws from every form the encoder distinguishes: zero,
// negative zero, magnitudes on both sides of encoding/json's switches to
// exponent notation (1e-6 and 1e21) with one- and two-digit exponents,
// negative devices, absent and present tensors, and kind names that need
// every sort of escape.
func randomSegment(rng *rand.Rand) Segment {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456.789,
		1e-6, 0.999e-6, 1.5e-7, 1e-9, 3e-10, 1e-100, 5e-324,
		1e20, 9.99e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
	}
	float := func() float64 {
		switch f := floats[rng.Intn(len(floats))]; rng.Intn(4) {
		case 0:
			return rng.NormFloat64()
		case 1:
			return f * rng.Float64()
		case 2:
			return -f
		default:
			return f
		}
	}
	kinds := []string{
		"kernel", "h2d", "idle", "", "EventKind(99)", `say "hi"`, `back\slash`, "a<b", "a>b", "a&b",
		"tab\there", "nul\x00", "del\x7f", "snow☃", "line sep", "bad\xffutf8", "\n    \"segments\": null",
	}
	s := Segment{Start: float(), End: float(), Kind: kinds[rng.Intn(len(kinds))], Device: rng.Intn(12) - 2}
	if rng.Intn(2) == 0 {
		s.Tensor = rng.Uint64() >> uint(rng.Intn(64))
	}
	return s
}

// TestSegmentsEncodeAsEncodingJSON holds writeSegments to json.MarshalIndent
// byte for byte.
func TestSegmentsEncodeAsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		var segs []Segment
		for n := 1 + rng.Intn(12); n > 0; n-- {
			segs = append(segs, randomSegment(rng))
		}
		want, err := json.MarshalIndent(segs, "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append([]byte(strings.TrimSuffix(segmentsNull, "null")), want...)
		var got bytes.Buffer
		bw := bufio.NewWriter(&got)
		if err := writeSegments(bw, segs); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: segments %+v render as\n%s\nencoding/json renders\n%s", round, segs, got.Bytes(), want)
		}
	}
}

// TestReportJSONAsEncodingJSON holds the whole document to what
// encoding/json alone writes, whatever sections the report has.
func TestReportJSONAsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events, makespan := randomEvents(rng)
	decisions := []obs.DecisionRecord{{Policy: "p", Pattern: obs.TwoNew, PredictedBytes: 5, ActualBytes: 9}}
	full := Build(Input{
		Scheduler: segmentsNull, Workload: "w", Makespan: makespan, Events: events, Decisions: decisions,
		Snapshot: &obs.Snapshot{Spans: []obs.Span{
			{Name: "stage", Attrs: map[string]string{"index": "0", "pairs": "1", "sim_start_s": "0", "sim_end_s": "6"}},
		}},
	})
	if len(full.CriticalPath.Segments) < 2 {
		t.Fatalf("fixture has %d segments", len(full.CriticalPath.Segments))
	}
	escaped := *full
	escaped.CriticalPath = &CriticalPath{Makespan: 1, Segments: []Segment{randomSegment(rng), {Kind: segmentsNull}}}
	for name, r := range map[string]*Report{
		"full":          full,
		"escaped kinds": &escaped,
		"no path":       Build(Input{Decisions: decisions}),
		"no events":     Build(Input{Makespan: 3}),
		"no segments":   {CriticalPath: CriticalPathOf(nil, 0)},
		"empty":         {CriticalPath: &CriticalPath{Segments: []Segment{}}},
	} {
		var got, want bytes.Buffer
		if err := r.WriteJSON(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := writeJSON(&want, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteJSON wrote\n%s\nencoding/json writes\n%s", name, got.Bytes(), want.Bytes())
		}
	}
}

// TestReportJSONErrors checks that what encoding/json refuses is still
// refused, and that a failing writer's error comes back.
func TestReportJSONErrors(t *testing.T) {
	for _, bad := range []Segment{{Start: math.NaN()}, {End: math.Inf(1)}, {Start: math.Inf(-1)}} {
		r := &Report{CriticalPath: &CriticalPath{Segments: []Segment{{End: 1, Kind: "kernel"}, bad}}}
		if err := r.WriteJSON(new(bytes.Buffer)); err == nil {
			t.Errorf("segment %+v rendered without error", bad)
		}
	}
	if err := (&Report{Makespan: math.NaN(), CriticalPath: &CriticalPath{}}).WriteJSON(new(bytes.Buffer)); err == nil {
		t.Error("NaN makespan rendered without error")
	}
	r := Build(Input{Makespan: 2, Events: []gpusim.Event{ev(gpusim.EventKernel, 0, 1, 0, 2)}})
	boom := errors.New("boom")
	if err := r.WriteJSON(failWriter{boom}); !errors.Is(err, boom) {
		t.Errorf("WriteJSON on a failing writer returned %v, want %v", err, boom)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }
