package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// byte for byte: on random segments, half of which begin where the one
// before ends as a path's do, and on the neighbours the reuse of a
// boundary's digits has to tell apart.
func TestSegmentsEncodeAsEncodingJSON(t *testing.T) {
	check := func(name string, segs []Segment) {
		t.Helper()
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
			t.Fatalf("%s: segments %+v render as\n%s\nencoding/json renders\n%s", name, segs, got.Bytes(), want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		var segs []Segment
		for n := 1 + rng.Intn(12); n > 0; n-- {
			s := randomSegment(rng)
			if len(segs) > 0 && rng.Intn(2) == 0 {
				s.Start = segs[len(segs)-1].End
			}
			segs = append(segs, s)
		}
		check(fmt.Sprintf("round %d", round), segs)
	}

	negZero := math.Copysign(0, -1)
	kernel, unknown := gpusim.EventKernel.String(), gpusim.EventKind(99).String()
	for name, segs := range map[string][]Segment{
		// Equal as floats, different as text: the digits must not carry over.
		"-0 then 0":  {{Start: -1, End: negZero, Kind: kernel}, {Start: 0, End: 1, Kind: kernel}},
		"0 then -0":  {{Start: -1, End: 0, Kind: kernel}, {Start: negZero, End: 1, Kind: kernel}},
		"-0 then -0": {{Start: -1, End: negZero, Kind: kernel}, {Start: negZero, End: 1, Kind: kernel}},
		// A first segment has no boundary before it, whatever the zero value of the cache says.
		"first starts at 0":  {{Start: 0, End: 0, Kind: "idle"}, {Start: 0, End: 0, Kind: "idle"}},
		"first starts at -0": {{Start: negZero, End: 2, Kind: kernel}},
		// Neighbours that do not tile: a gap, an overlap, the next float up.
		"gap":        {{Start: 0, End: 1, Kind: kernel}, {Start: 1.5, End: 2, Kind: kernel}, {Start: 2, End: 3, Kind: kernel}},
		"overlap":    {{Start: 0, End: 2, Kind: kernel}, {Start: 1, End: 3, Kind: kernel}},
		"one ulp up": {{Start: 0, End: 1, Kind: kernel}, {Start: math.Nextafter(1, 2), End: 2, Kind: kernel}},
		"backwards":  {{Start: 3, End: 2, Kind: kernel}, {Start: 2, End: 1, Kind: kernel}, {Start: 1, End: 3, Kind: kernel}},
		// Exponent forms, whose e-07 is rewritten to e-7 in place: the reused digits are the rewritten ones.
		"e-7 boundary":    {{Start: 0, End: 1.5e-7, Kind: kernel}, {Start: 1.5e-7, End: 3e-7, Kind: kernel}, {Start: 3e-7, End: 1e-6, Kind: "idle"}, {Start: 1e-6, End: 1, Kind: kernel}},
		"e-10 boundary":   {{Start: 0, End: 3e-10, Kind: kernel}, {Start: 3e-10, End: 1e-100, Kind: kernel}, {Start: 1e-100, End: 5e-324, Kind: kernel}, {Start: 5e-324, End: 1, Kind: kernel}},
		"e+21 boundary":   {{Start: 0, End: 1e21, Kind: kernel}, {Start: 1e21, End: 1.5e300, Kind: kernel}, {Start: 1.5e300, End: math.MaxFloat64, Kind: kernel}},
		"long then short": {{Start: 0, End: 123456.78901234567, Kind: kernel}, {Start: 123456.78901234567, End: 2e5, Kind: kernel}, {Start: 2e5, End: 3e5, Kind: kernel}},
		// Kinds: an unregistered one by its number, and names that need each sort of escape.
		"unknown kind": {{Start: 0, End: 1, Kind: unknown, Device: 3, Tensor: 9}, {Start: 1, End: 2, Kind: unknown, Device: -1}},
		"escaped kinds": {
			{Start: 0, End: 1, Kind: `say "hi"`}, {Start: 1, End: 2, Kind: `back\slash`}, {Start: 2, End: 3, Kind: "a<b>&c"},
			{Start: 3, End: 4, Kind: "tab\there"}, {Start: 4, End: 5, Kind: "nul\x00"}, {Start: 5, End: 6, Kind: "del\x7f"},
			{Start: 6, End: 7, Kind: "snow☃"}, {Start: 7, End: 8, Kind: "line\u2028sep"}, {Start: 8, End: 9, Kind: "bad\xffutf8"}, {Start: 9, End: 10, Kind: ""},
		},
	} {
		check(name, segs)
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
