package report

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"micco/internal/obs"
)

// TestSortByStartMatchesComparisonSort holds the walk's order to a
// comparison sort of the events themselves by start, then end, on seeded
// sets both near their start order (the insertion pass alone orders them)
// and far from it (the comparison sort of the indices takes over). The
// bounds include equal starts with different ends, -0 and +0, and
// negative, subnormal and near-MaxFloat64 values.
func TestSortByStartMatchesComparisonSort(t *testing.T) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2.5e-3, 1e-300, 5e-324, 2.2250738585072014e-308,
		math.Nextafter(0, 1) * 3, math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), -math.MaxFloat64, 1e300, -1e-300,
	}
	draw := func(rng *rand.Rand) float64 {
		f := pool[rng.Intn(len(pool))]
		switch rng.Intn(4) {
		case 0:
			return -f
		case 1:
			return f * rng.Float64()
		case 2:
			return float64(rng.Intn(16)) / 4 // equal starts, often
		}
		return f
	}
	byStartEnd := func(a, b obs.Event) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		case a.End < b.End:
			return -1
		case a.End > b.End:
			return 1
		}
		return 0
	}
	paths := map[bool]int{}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := make([]obs.Event, rng.Intn(600))
		for i := range events {
			events[i] = obs.Event{Start: draw(rng), End: draw(rng)}
		}
		if seed%2 == 0 {
			// Near start order: sorted, then a few neighbours swapped.
			slices.SortFunc(events, byStartEnd)
			for i := 0; i+1 < len(events); i += 1 + rng.Intn(8) {
				events[i], events[i+1] = events[i+1], events[i]
			}
		}
		cands := make([]int32, len(events))
		for i := range cands {
			cands[i] = int32(i)
		}
		paths[insertByStart(events, slices.Clone(cands), sortMoves*len(cands))]++
		got := slices.Clone(cands)
		sortByStart(events, got)
		want := slices.Clone(events)
		slices.SortFunc(want, byStartEnd)
		seen := make([]bool, len(events))
		for i, c := range got {
			if seen[c] {
				t.Fatalf("seed %d: candidate %d twice", seed, c)
			}
			seen[c] = true
			if byStartEnd(events[c], want[i]) != 0 {
				t.Fatalf("seed %d, position %d: [%v, %v], a comparison sort has [%v, %v]", seed, i, events[c].Start, events[c].End, want[i].Start, want[i].End)
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("the insertion pass alone ordered %d sets and gave up on %d: both must occur", paths[true], paths[false])
	}
}

// TestCriticalPathMatchesReferenceUnordered holds the walk to the
// quadratic one on event sets so far from start order that the insertion
// pass gives up and the comparison sort orders them: a staircase of a
// hundred disjoint events given last first, and sets drawn as
// TestCriticalPathMatchesReference draws them, but hundreds at a time and
// shuffled.
func TestCriticalPathMatchesReferenceUnordered(t *testing.T) {
	type set struct {
		events   []obs.Event
		makespan float64
	}
	stairs := set{makespan: 100}
	for i := 99; i >= 0; i-- {
		stairs.events = append(stairs.events, ev(obs.EventKernel, 0, 0, float64(i), float64(i)+0.5))
	}
	sets := []set{stairs}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s set
		for len(s.events) < 300 {
			more, m := randomEvents(rng)
			s.events, s.makespan = append(s.events, more...), max(s.makespan, m)
		}
		rng.Shuffle(len(s.events), func(i, j int) { s.events[i], s.events[j] = s.events[j], s.events[i] })
		sets = append(sets, s)
	}
	for k, s := range sets {
		cands := make([]int32, len(s.events))
		for i := range cands {
			cands[i] = int32(i)
		}
		if insertByStart(s.events, cands, sortMoves*len(cands)) {
			t.Fatalf("set %d: the insertion pass ordered its %d events", k, len(s.events))
		}
		if err := equalPaths(CriticalPathOf(s.events, s.makespan), refCriticalPath(s.events, s.makespan)); err != nil {
			t.Fatalf("set %d (%d events, makespan %v): %v", k, len(s.events), s.makespan, err)
		}
	}
}
