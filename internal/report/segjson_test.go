package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

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
// boundary's digits has to tell apart. segmentsLen's bound must exceed
// what is written by exactly what the numbers leave of floatLen's bounds,
// which are checked on every power of ten, its neighbours and 17-digit
// numbers in every decade.
func TestSegmentsEncodeAsEncodingJSON(t *testing.T) {
	check := func(name string, segs []Segment) {
		t.Helper()
		want, err := json.MarshalIndent(segs, "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append([]byte(strings.TrimSuffix(segmentsNull, "null")), want...)
		size, err := segmentsLen(segs)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := writeSegments(&got, segs, size); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: segments %+v render as\n%s\nencoding/json renders\n%s", name, segs, got.Bytes(), want)
		}
		slack := 0
		for _, s := range segs {
			for _, f := range []float64{s.Start, s.End} {
				if n, max := len(obs.AppendJSONFloat(nil, f)), floatLen(f); n > max {
					t.Fatalf("%s: %v renders in %d bytes, floatLen says at most %d", name, f, n, max)
				} else {
					slack += max - n
				}
			}
		}
		if size != len(want)+slack {
			t.Fatalf("%s: segmentsLen is %d, want %d written + %d the numbers leave", name, size, len(want), slack)
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
	kernel, unknown := obs.EventKernel.String(), obs.EventKind(99).String()
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
		// The longest numbers encoding/json writes: 25 bytes just above 1e-6, 24 in e form.
		"longest numbers": {{Start: -1.2345678901234567e-6, End: -9.876543210987654e-7, Kind: kernel}, {Start: -1.2345678901234567e-300, End: -1.2345678901234567e20, Kind: kernel}},
		// Powers of ten in f form print shorter than their float neighbours.
		"powers of ten": {{Start: 0.1, End: 0.09999999999999999, Kind: kernel}, {Start: 1e-5, End: 9.999999999999999e-6, Kind: kernel}, {Start: 1, End: 0.9999999999999999, Kind: kernel}, {Start: 1e17, End: 99999999999999980, Kind: kernel}, {Start: 999999999999999900000, End: 1e21, Kind: kernel}},
		// Devices and tensors of every width, and the sign of the most negative device.
		"integer widths": {
			{Start: 0, End: 1, Kind: kernel, Device: math.MinInt, Tensor: math.MaxUint64}, {Start: 1, End: 2, Kind: kernel, Device: math.MaxInt, Tensor: 1},
			{Start: 2, End: 3, Kind: kernel, Device: -10, Tensor: 10}, {Start: 3, End: 4, Kind: kernel, Device: 9, Tensor: 99}, {Start: 4, End: 5, Kind: kernel, Device: -9, Tensor: 100},
		},
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
	var decades []Segment
	for e := -325; e <= 309; e++ {
		p := math.Pow(10, float64(e))
		for _, f := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p * (1 + 1.0/3), p * 9.876543210987654, p * (1 - 1e-16)} {
			if finite(f) {
				decades = append(decades, Segment{Start: f, End: -f, Kind: kernel})
			}
		}
	}
	check("every decade", decades)
}

// TestReportJSONAsEncodingJSON holds the whole document to what
// encoding/json alone writes, whatever sections the report has, both to a
// writer that can grow, which must be grown at most once and then hold the
// whole document, and to one that cannot, which must get the
// document in writes of at least renderChunk bytes but for the head, the
// last chunk and the tail.
func TestReportJSONAsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events, makespan := randomEvents(rng)
	decisions := []obs.DecisionRecord{{Policy: obs.PolicyRoundRobin, Pattern: obs.TwoNew, PredictedBytes: 5, ActualBytes: 9}}
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
	long := *full
	long.CriticalPath = &CriticalPath{Segments: make([]Segment, 3000)}
	for i := range long.CriticalPath.Segments {
		s := randomSegment(rng)
		if i > 0 && rng.Intn(8) > 0 {
			s.Start = long.CriticalPath.Segments[i-1].End
		}
		long.CriticalPath.Segments[i] = s
	}
	for name, r := range map[string]*Report{
		"full":          full,
		"escaped kinds": &escaped,
		"long":          &long,
		"no path":       Build(Input{Decisions: decisions}),
		"no events":     Build(Input{Makespan: 3}),
		"no segments":   {CriticalPath: CriticalPathOf(nil, 0)},
		"empty":         {CriticalPath: &CriticalPath{Segments: []Segment{}}},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grown, plain := new(recorder), new(recorder)
		for w, rec := range map[io.Writer]*recorder{grown: grown, struct{ io.Writer }{plain}: plain} {
			if err := r.WriteJSON(w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(rec.Bytes(), want.Bytes()) {
				t.Errorf("%s: WriteJSON wrote\n%s\nencoding/json writes\n%s", name, rec.Bytes(), want.Bytes())
			}
		}
		n := want.Len()
		if g := grown.grows; len(g) > 1 || len(g) == 1 && g[0] < n {
			t.Errorf("%s: a %d-byte document grew its writer by %v", name, n, g)
		}
		if len(plain.grows) != 0 {
			t.Errorf("%s: a writer that cannot grow was grown by %v", name, plain.grows)
		}
		if small := plain.writes - plain.large; small > 3 || plain.large < n/(2*renderChunk) {
			t.Errorf("%s: a %d-byte document came in %d writes under %d bytes and %d over", name, n, small, renderChunk, plain.large)
		}
	}
}

// recorder keeps what it is written and counts its writes, its writes of
// at least renderChunk bytes and its Grow calls. Wrapped in
// struct{ io.Writer } it is a writer that cannot grow.
type recorder struct {
	bytes.Buffer
	grows         []int
	writes, large int
}

func (r *recorder) Grow(n int) {
	r.grows = append(r.grows, n)
	r.Buffer.Grow(n)
}

func (r *recorder) Write(p []byte) (int, error) {
	r.writes++
	if len(p) >= renderChunk {
		r.large++
	}
	return r.Buffer.Write(p)
}

// TestReportJSONErrors checks that what encoding/json refuses is still
// refused, before a byte or a Grow reaches the writer, whether the
// refused segment comes first, second or after the first 20 KB, and
// that a failing writer's error comes back.
func TestReportJSONErrors(t *testing.T) {
	path := func(bad Segment, before int) *Report {
		segs := make([]Segment, before, before+1)
		for i := range segs {
			segs[i] = Segment{Start: float64(i), End: float64(i + 1), Kind: "kernel"}
		}
		return &Report{CriticalPath: &CriticalPath{Segments: append(segs, bad)}}
	}
	refused := map[string]*Report{
		"NaN makespan":       {Makespan: math.NaN(), CriticalPath: &CriticalPath{}},
		"NaN makespan, path": {Makespan: math.NaN(), CriticalPath: path(Segment{End: 1}, 1).CriticalPath},
		"first NaN start":    path(Segment{Start: math.NaN()}, 0),
		"NaN after 200":      path(Segment{Start: 200, End: math.NaN(), Kind: "kernel"}, 200),
	}
	for _, bad := range []Segment{{Start: math.NaN()}, {End: math.Inf(1)}, {Start: math.Inf(-1)}} {
		refused[fmt.Sprintf("second %+v", bad)] = path(bad, 1)
	}
	for name, r := range refused {
		grown, plain := new(recorder), new(recorder)
		for w, rec := range map[io.Writer]*recorder{grown: grown, struct{ io.Writer }{plain}: plain} {
			if err := r.WriteJSON(w); err == nil {
				t.Errorf("%s: rendered without error", name)
			}
			if rec.Len() != 0 || len(rec.grows) != 0 {
				t.Errorf("%s: refused after writing %d bytes and growing by %v", name, rec.Len(), rec.grows)
			}
		}
	}
	r := Build(Input{Makespan: 2, Events: []obs.Event{ev(obs.EventKernel, 0, 1, 0, 2)}})
	boom := errors.New("boom")
	if err := r.WriteJSON(failWriter{boom}); !errors.Is(err, boom) {
		t.Errorf("WriteJSON on a failing writer returned %v, want %v", err, boom)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }
