package report

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// refStageWaterfall is the waterfall StageWaterfall replaced, kept verbatim
// as the oracle: every stage scans every event.
func refStageWaterfall(spans []obs.Span, events []gpusim.Event, devices int) []StageRow {
	var rows []StageRow
	for _, sp := range spans {
		if sp.Name != "stage" || sp.Attrs == nil {
			continue
		}
		start, err1 := strconv.ParseFloat(sp.Attrs["sim_start_s"], 64)
		end, err2 := strconv.ParseFloat(sp.Attrs["sim_end_s"], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		idx, _ := strconv.Atoi(sp.Attrs["index"])
		pairs, _ := strconv.Atoi(sp.Attrs["pairs"])
		row := StageRow{Index: idx, Pairs: pairs, Start: start, End: end}
		for _, e := range events {
			if e.Kind == gpusim.EventFault {
				continue
			}
			// Clip the event to the stage window; recovery re-runs can make
			// an event span a boundary.
			s, t := e.Start, e.End
			if s < start {
				s = start
			}
			if t > end {
				t = end
			}
			if t <= s {
				continue
			}
			d := t - s
			switch e.Kind {
			case gpusim.EventKernel:
				row.ComputeSeconds += d
			case gpusim.EventEvict:
				row.EvictSeconds += d
			default:
				row.TransferSeconds += d
			}
			row.BusySeconds += d
		}
		if w := row.Window(); w > 0 && devices > 0 {
			row.Utilization = row.BusySeconds / (w * float64(devices))
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Index != rows[j].Index {
			return rows[i].Index < rows[j].Index
		}
		return rows[i].Start < rows[j].Start
	})
	return rows
}

// TestStageWaterfallMatchesReference holds the one-pass waterfall to the
// nested loop, row for row with ==: a row's sums are of floats whose
// rounding depends on the order they are added in, and the order is the
// trace's in both. The stage windows are what a run leaves (consecutive, in
// order) and what it does not: overlapping, nested, repeated, empty,
// reversed, out of order and sharing an index; the events fall inside a
// window, across one boundary or several, and outside all of them.
func TestStageWaterfallMatchesReference(t *testing.T) {
	attr := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events, makespan := randomEvents(rng)
		span := makespan + 1
		var spans []obs.Span
		stages := rng.Intn(8)
		at := 0.0
		for i := 0; i < stages; i++ {
			var start, end float64
			switch rng.Intn(4) {
			case 0: // as a run records them: each begins where the last ended
				start, end = at, at+rng.Float64()*span/2
				at = end
			case 1: // on the events' own grid, so that boundaries coincide with theirs
				start, end = float64(rng.Intn(8))/2, float64(rng.Intn(8))/2
			default: // anywhere, reversed as often as not
				start, end = rng.Float64()*span, rng.Float64()*span
			}
			sp := obs.Span{Name: "stage", Attrs: map[string]string{
				"index": strconv.Itoa(rng.Intn(stages)), "pairs": strconv.Itoa(rng.Intn(9)),
				"sim_start_s": attr(start), "sim_end_s": attr(end),
			}}
			switch rng.Intn(12) {
			case 0:
				sp.Name = "run"
			case 1:
				sp.Attrs = nil
			case 2:
				delete(sp.Attrs, "sim_end_s")
			}
			spans = append(spans, sp)
			if rng.Intn(6) == 0 {
				spans = append(spans, sp) // the same window twice
			}
		}
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		devices := rng.Intn(5)
		got, want := StageWaterfall(spans, events, devices), refStageWaterfall(spans, events, devices)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: row %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}
