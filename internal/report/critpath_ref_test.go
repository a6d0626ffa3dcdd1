package report

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"micco/internal/obs"
)

// refCriticalPath is the walk CriticalPathOf replaced, kept verbatim as the
// oracle: every step rescans the whole prefix of candidates starting before
// the cursor, which is quadratic but plainly the definition.
func refCriticalPath(events []obs.Event, makespan float64) *CriticalPath {
	cp := &CriticalPath{Makespan: makespan}
	// Candidates sorted by start so each step only scans events that can
	// still be selected as the cursor walks toward 0.
	cand := make([]obs.Event, 0, len(events))
	for _, e := range events {
		if e.Kind == obs.EventFault || e.Duration() <= 0 || e.Start >= makespan {
			continue
		}
		cand = append(cand, e)
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Kind != b.Kind {
			return a.Kind.String() < b.Kind.String()
		}
		return a.Tensor < b.Tensor
	})

	cursor := makespan
	// limit is the number of candidates with Start < cursor; it only
	// shrinks as the cursor walks backward.
	limit := len(cand)
	var segs []Segment // built newest-first
	for cursor > 0 {
		for limit > 0 && cand[limit-1].Start >= cursor {
			limit--
		}
		if limit == 0 {
			// Nothing runs before the cursor: the remaining prefix is idle,
			// delaying whatever segment follows it.
			dev := -1
			if len(segs) > 0 {
				dev = segs[len(segs)-1].Device
			}
			segs = append(segs, Segment{Start: 0, End: cursor, Kind: "idle", Device: dev})
			break
		}
		best, bestTop := -1, 0.0
		for i := 0; i < limit; i++ {
			top := cand[i].End
			if top > cursor {
				top = cursor
			}
			if best < 0 || top > bestTop || (top == bestTop && refLaterChain(cand[i], cand[best])) {
				best, bestTop = i, top
			}
		}
		e := cand[best]
		if bestTop < cursor {
			// Gap between this event's reach and the segment above it: the
			// successor (the segment just emitted) was waiting.
			dev := int(e.Device)
			if len(segs) > 0 {
				dev = segs[len(segs)-1].Device
			}
			segs = append(segs, Segment{Start: bestTop, End: cursor, Kind: "idle", Device: dev})
		}
		segs = append(segs, Segment{
			Start:  e.Start,
			End:    bestTop,
			Kind:   e.Kind.String(),
			Device: int(e.Device),
			Tensor: e.Tensor,
		})
		cursor = e.Start
	}
	// Reverse into chronological order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	cp.Segments = segs
	cp.ByDevice = shares(segs, makespan, func(s Segment) string { return deviceKey(s.Device) })
	cp.ByKind = shares(segs, makespan, func(s Segment) string { return s.Kind })
	cp.ByResource = shares(segs, makespan, func(s Segment) string { return resourceOf(s.Kind) })
	return cp
}

// shares is the blame aggregation CriticalPathOf replaced, kept verbatim as
// the oracle of its tallies: segment durations summed per key in a map,
// sorted by descending seconds then key.
func shares(segs []Segment, makespan float64, key func(Segment) string) []Share {
	acc := map[string]float64{}
	for _, s := range segs {
		acc[key(s)] += s.Duration()
	}
	out := make([]Share, 0, len(acc))
	for k, sec := range acc {
		frac := 0.0
		if makespan > 0 {
			frac = sec / makespan
		}
		out = append(out, Share{Key: k, Seconds: sec, Fraction: frac})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// refLaterChain is laterChain as the replaced walk had it, on events and
// kind names.
func refLaterChain(a, b obs.Event) bool {
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	if a.Kind != b.Kind {
		return a.Kind.String() < b.Kind.String()
	}
	return a.Tensor < b.Tensor
}

// RefCriticalPath hands the oracle to the external test package, whose
// recorded-trace fixtures import micco (which imports this package).
var RefCriticalPath = refCriticalPath

// equalPaths reports the first difference between two paths: segments by
// struct equality and shares by key and bits, so -0 and 0 differ.
func equalPaths(got, want *CriticalPath) error {
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		return fmt.Errorf("makespan %v, want %v", got.Makespan, want.Makespan)
	}
	if len(got.Segments) != len(want.Segments) || (got.Segments == nil) != (want.Segments == nil) {
		return fmt.Errorf("%d segments (nil %v), want %d (nil %v)",
			len(got.Segments), got.Segments == nil, len(want.Segments), want.Segments == nil)
	}
	for i, w := range want.Segments {
		g := got.Segments[i]
		if g != w || math.Float64bits(g.Start) != math.Float64bits(w.Start) || math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Errorf("segment %d = %+v, want %+v", i, g, w)
		}
	}
	for _, tab := range []struct {
		label     string
		got, want []Share
	}{
		{"by_device", got.ByDevice, want.ByDevice},
		{"by_kind", got.ByKind, want.ByKind},
		{"by_resource", got.ByResource, want.ByResource},
	} {
		if len(tab.got) != len(tab.want) || (tab.got == nil) != (tab.want == nil) {
			return fmt.Errorf("%s: %+v, want %+v", tab.label, tab.got, tab.want)
		}
		for i, w := range tab.want {
			g := tab.got[i]
			if g.Key != w.Key || math.Float64bits(g.Seconds) != math.Float64bits(w.Seconds) ||
				math.Float64bits(g.Fraction) != math.Float64bits(w.Fraction) {
				return fmt.Errorf("%s[%d] = %+v, want %+v", tab.label, i, g, w)
			}
		}
	}
	return nil
}

// EqualPaths is equalPaths for the external test package.
var EqualPaths = equalPaths

// randomEvents draws an event set built to collide: times come from a
// coarse grid with a few off-grid values, so events nest, overlap and share
// a start, an end or both; devices, kinds (a fault and an unregistered kind
// among them) and tensors come from small ranges so that every level of the
// tie-break decides somewhere; some events are zero-length or reversed,
// some are appended twice, and the makespan falls before, at or after the
// last end, with or without an idle head.
func randomEvents(rng *rand.Rand) ([]obs.Event, float64) {
	kinds := []obs.EventKind{
		obs.EventKernel, obs.EventH2D, obs.EventD2H, obs.EventP2P,
		obs.EventEvict, obs.EventInter, obs.EventFault, obs.EventKind(99),
	}
	grid := 1 + rng.Intn(12)
	at := func() float64 {
		t := float64(rng.Intn(grid+1)) / 2
		if rng.Intn(8) == 0 {
			t += rng.Float64() / 2
		}
		return t
	}
	head := 0.0
	if rng.Intn(3) == 0 {
		head = at() // nothing starts before it: an idle head
	}
	n := rng.Intn(40)
	if rng.Intn(10) == 0 {
		n = 0
	}
	events := make([]obs.Event, 0, n+n/4)
	for len(events) < n {
		e := obs.Event{
			Kind:   kinds[rng.Intn(len(kinds))],
			Device: int32(rng.Intn(4) - 1),
			Tensor: uint64(rng.Intn(3)),
			Start:  head + at(),
		}
		switch rng.Intn(10) {
		case 0:
			e.End = e.Start // zero duration
		case 1:
			e.End = e.Start - at() // reversed
		default:
			e.End = e.Start + at()
		}
		events = append(events, e)
		if rng.Intn(4) == 0 {
			events = append(events, e) // a full duplicate
		}
	}
	makespan := 0.0
	for _, e := range events {
		makespan = math.Max(makespan, e.End)
	}
	switch rng.Intn(4) {
	case 0:
		makespan += at() // an idle tail
	case 1:
		makespan = at() // events may start at or past it, or straddle it
	}
	return events, makespan
}

// TestCriticalPathMatchesReference holds the walk to the quadratic one it
// replaced, segment for segment and share for share, on event sets drawn
// to reach every branch of both.
func TestCriticalPathMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		events, makespan := randomEvents(rand.New(rand.NewSource(seed)))
		if err := equalPaths(CriticalPathOf(events, makespan), refCriticalPath(events, makespan)); err != nil {
			t.Fatalf("seed %d (%d events, makespan %v): %v", seed, len(events), makespan, err)
		}
	}
}

// TestCriticalPathNonFinite feeds the walk what a truncated or hand-edited
// artifact can hold. Non-finite events are dropped, so the path is the one
// of the finite events alone and still tiles [0, makespan]; a makespan that
// is not a positive finite number has no path.
func TestCriticalPathNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := []obs.Event{
		ev(obs.EventH2D, 0, 1, 0, 2),
		ev(obs.EventKernel, 1, 2, 1, 4),
		ev(obs.EventKernel, 0, 3, 5, 6),
	}
	bad := []obs.Event{
		ev(obs.EventKernel, 0, 9, nan, 3),
		ev(obs.EventKernel, 0, 9, 1, nan),
		ev(obs.EventKernel, 0, 9, nan, nan),
		ev(obs.EventKernel, 0, 9, math.Inf(-1), 3),
		ev(obs.EventKernel, 0, 9, 1, inf),
		ev(obs.EventKernel, 0, 9, math.Inf(-1), inf),
		ev(obs.EventKernel, 0, 9, inf, inf),
	}
	for i, b := range bad {
		for at := 0; at <= len(good); at++ {
			events := append(append(append([]obs.Event{}, good[:at]...), b), good[at:]...)
			cp := CriticalPathOf(events, 6)
			checkPartition(t, cp)
			if err := equalPaths(cp, refCriticalPath(good, 6)); err != nil {
				t.Errorf("bad event %d at %d: %v", i, at, err)
			}
		}
	}
	cp := CriticalPathOf(bad, 6)
	checkPartition(t, cp)
	if len(cp.Segments) != 1 || cp.Segments[0].Kind != "idle" {
		t.Errorf("only non-finite events: segments = %+v, want one idle segment", cp.Segments)
	}
	for _, makespan := range []float64{nan, inf, math.Inf(-1), 0, -1} {
		cp := CriticalPathOf(append(good, bad...), makespan)
		if len(cp.Segments) != 0 || len(cp.ByDevice) != 0 || len(cp.ByKind) != 0 || len(cp.ByResource) != 0 {
			t.Errorf("makespan %v: path = %+v, want no segments and no shares", makespan, cp)
		}
	}
}

// checkTiling asserts that the segments tile [0, makespan]: the first
// starts at +0, each starts at the very float — the same bits — the one
// before ends at, none is empty, and the last ends at the makespan. A run
// with no path has no segment list at all.
func checkTiling(cp *CriticalPath) error {
	if !(cp.Makespan > 0) || !finite(cp.Makespan) {
		if cp.Segments != nil {
			return fmt.Errorf("makespan %v has segments %+v", cp.Makespan, cp.Segments)
		}
		return nil
	}
	at := 0.0
	for i, s := range cp.Segments {
		if math.Float64bits(s.Start) != math.Float64bits(at) {
			return fmt.Errorf("segment %d starts at %v (bits %#x), the one before ends at %v (bits %#x)",
				i, s.Start, math.Float64bits(s.Start), at, math.Float64bits(at))
		}
		if !(s.End > s.Start) {
			return fmt.Errorf("segment %d is empty or reversed: %+v", i, s)
		}
		at = s.End
	}
	if math.Float64bits(at) != math.Float64bits(cp.Makespan) {
		return fmt.Errorf("the path ends at %v, makespan %v", at, cp.Makespan)
	}
	if len(cp.Segments) != cap(cp.Segments) {
		return fmt.Errorf("%d segments in storage for %d", len(cp.Segments), cap(cp.Segments))
	}
	return nil
}

// TestCriticalPathTilesAndSharesMatchMap checks, on the random traces of
// TestCriticalPathMatchesReference and on copies of them whose devices are
// scattered past any table (more devices than events, the ends of int32), the
// two things the path promises of itself: its segments tile [0, makespan]
// with bit-equal boundaries in storage of exactly their number, and each
// share list — keys, order, seconds and fractions — is what summing the
// path's own segments into a map by key name gives.
func TestCriticalPathTilesAndSharesMatchMap(t *testing.T) {
	scattered := []int32{math.MinInt32, -7, 40, 63, 64, 65, 4095, 1 << 30, math.MaxInt32}
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events, makespan := randomEvents(rng)
		if seed%3 == 0 {
			for i := range events {
				if rng.Intn(2) == 0 {
					events[i].Device = scattered[rng.Intn(len(scattered))]
				}
			}
		}
		cp := CriticalPathOf(events, makespan)
		if err := checkTiling(cp); err != nil {
			t.Fatalf("seed %d (%d events, makespan %v): %v", seed, len(events), makespan, err)
		}
		want := &CriticalPath{
			Makespan:   makespan,
			Segments:   cp.Segments,
			ByDevice:   shares(cp.Segments, makespan, func(s Segment) string { return deviceKey(s.Device) }),
			ByKind:     shares(cp.Segments, makespan, func(s Segment) string { return s.Kind }),
			ByResource: shares(cp.Segments, makespan, func(s Segment) string { return resourceOf(s.Kind) }),
		}
		if err := equalPaths(cp, want); err != nil {
			t.Fatalf("seed %d (%d events, makespan %v): %v", seed, len(events), makespan, err)
		}
		if seed%3 == 0 {
			if err := equalPaths(cp, refCriticalPath(events, makespan)); err != nil {
				t.Fatalf("seed %d, devices scattered: %v", seed, err)
			}
		}
	}
}

// TestCriticalPathAllocations pins what a path may allocate: the keys, the
// walk's table, the segments, the three tallies and their lists, and one
// key string per device on the path — not one per segment, and nothing
// re-grown.
func TestCriticalPathAllocations(t *testing.T) {
	events, makespan := nestedEvents(4000)
	for i := range events {
		events[i].Device = int32(i % 8)
	}
	allocs := testing.AllocsPerRun(5, func() { sinkPath = CriticalPathOf(events, makespan) })
	if len(sinkPath.Segments) < 4000 || allocs > 32 {
		t.Errorf("%d segments cost %v allocations, want at most 32", len(sinkPath.Segments), allocs)
	}
}
