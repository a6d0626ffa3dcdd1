package report

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"

	"micco/internal/gpusim"
)

// Segment is one link of the critical path: a half-open interval of
// simulated time attributed to one activity. Kind is a simulator event
// kind name, or "idle" for a gap in which nothing that gates the makespan
// was running. Idle segments take the device of their chronological
// successor (the work that eventually resumed is what the gap delayed);
// a trailing gap with no successor keeps the predecessor's device, and a
// path with no events at all uses device -1.
type Segment struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Kind   string  `json:"kind"`
	Device int     `json:"device"`
	Tensor uint64  `json:"tensor,omitempty"`
}

// Duration returns the segment length in seconds.
func (s Segment) Duration() float64 { return s.End - s.Start }

// Share is one blame bucket of the critical path: how many of the
// makespan's seconds this key gates.
type Share struct {
	Key      string  `json:"key"`
	Seconds  float64 `json:"seconds"`
	Fraction float64 `json:"fraction"`
}

// CriticalPath is a backward chain through the simulated timeline that
// exactly partitions [0, makespan]: each segment begins where the previous
// ends, the first begins at 0 and the last ends at the makespan. Shrinking
// any segment's activity would (locally) shrink the makespan, so the
// shares answer "what is the run waiting on".
type CriticalPath struct {
	Makespan float64   `json:"makespan"`
	Segments []Segment `json:"segments"`
	// ByDevice, ByKind and ByResource aggregate segment durations; each
	// slice's Seconds sum to the makespan. ByResource folds kinds onto the
	// hardware they occupy: kernels -> "compute", h2d/d2h -> "hostlink",
	// p2p -> "p2plink", inter -> "interlink", evictions -> "evict", gaps ->
	// "idle".
	ByDevice []Share `json:"by_device"`
	ByKind   []Share `json:"by_kind"`
	// ByResource is the per-link blame view.
	ByResource []Share `json:"by_resource"`
}

// resourceOf folds an event kind name onto the hardware resource it
// occupies.
func resourceOf(kind string) string {
	switch kind {
	case "kernel":
		return "compute"
	case "h2d", "d2h":
		return "hostlink"
	case "p2p":
		return "p2plink"
	case "inter":
		return "interlink"
	case "evict":
		return "evict"
	case "idle":
		return "idle"
	default:
		return kind
	}
}

// cand is what the walk reads of an event.
type cand struct {
	start, end float64
	tensor     uint64
	device     int
	kind       gpusim.EventKind
}

// CriticalPathOf chains backward from makespan through events. At each
// step it selects, among events beginning strictly before the cursor, the
// one reaching closest to the cursor (clipped at it); a shortfall becomes
// an idle segment. Ties break deterministically: later start, then lower
// device, then kind name, then tensor ID — so identical inputs always
// produce the identical path. Fault events, zero-duration events and events
// with a non-finite start or end are ignored, and a non-finite makespan has
// no path. The returned segments exactly partition [0, makespan]:
// consecutive boundaries are equal as floats, not merely close. The cost is
// one sort and then O(n) over all steps together (DESIGN.md §13).
func CriticalPathOf(events []gpusim.Event, makespan float64) *CriticalPath {
	cp := &CriticalPath{Makespan: makespan}
	cs := make([]cand, 0, len(events))
	for _, e := range events {
		// A NaN bound would pass the ordered comparisons and poison the cursor.
		if e.Kind == gpusim.EventFault || !finite(e.Start) || !finite(e.End) || e.Duration() <= 0 || e.Start >= makespan {
			continue
		}
		cs = append(cs, cand{e.Start, e.End, e.Tensor, e.Device, e.Kind})
	}
	// By start, and by end within a start, is all the order the steps rely
	// on; laterChain separates the rest where a step has to choose.
	slices.SortFunc(cs, func(a, b cand) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.end, b.end)
	})
	// reach[i] is the candidate of cs[0..i] that ends latest, ties broken by
	// laterChain (what it cannot separate is one event twice): what a step
	// selects when nothing before the cursor is still running at it.
	reach := make([]int, len(cs))
	for i := 1; i < len(cs); i++ {
		reach[i] = reach[i-1]
		if b := cs[reach[i]]; cs[i].end > b.end || (cs[i].end == b.end && laterChain(cs[i], b)) {
			reach[i] = i
		}
	}

	cursor := makespan
	if !finite(makespan) {
		cursor = 0 // no path
	}
	// limit is the number of candidates with start < cursor; it only
	// shrinks as the cursor walks backward.
	limit := len(cs)
	var segs []Segment // built newest-first
	for cursor > 0 {
		for limit > 0 && cs[limit-1].start >= cursor {
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
		best := reach[limit-1]
		top := cs[best].end
		if top >= cursor {
			// Whatever still runs at the cursor clips to it, so the tie goes
			// to the latest start: the last candidate reaching the cursor, or
			// one of the same start that laterChain prefers, which sits
			// directly below it. All that this scan passes over starts at or
			// after the next cursor and leaves the prefix with it, so the
			// scans of all steps together pass over each candidate once.
			top, best = cursor, limit-1
			for cs[best].end < cursor {
				best--
			}
			for i := best - 1; i >= 0 && cs[i].start == cs[best].start && cs[i].end >= cursor; i-- {
				if laterChain(cs[i], cs[best]) {
					best = i
				}
			}
		}
		e := cs[best]
		if top < cursor {
			// Gap between this event's reach and the segment above it: the
			// successor (the segment just emitted) was waiting.
			dev := e.device
			if len(segs) > 0 {
				dev = segs[len(segs)-1].Device
			}
			segs = append(segs, Segment{Start: top, End: cursor, Kind: "idle", Device: dev})
		}
		segs = append(segs, Segment{Start: e.start, End: top, Kind: e.kind.String(), Device: e.device, Tensor: e.tensor})
		cursor = e.start
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

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// laterChain orders tie-broken candidates: prefer the later-starting event
// (shortest backward hop), then lower device, kind name, tensor.
func laterChain(a, b cand) bool {
	if a.start != b.start {
		return a.start > b.start
	}
	if a.device != b.device {
		return a.device < b.device
	}
	if a.kind != b.kind {
		return a.kind.String() < b.kind.String()
	}
	return a.tensor < b.tensor
}

func deviceKey(d int) string {
	if d < 0 {
		return "none"
	}
	return "device " + strconv.Itoa(d)
}

// shares aggregates segment durations by key, sorted by descending
// seconds then key for a stable order.
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

func (cp *CriticalPath) writeText(t *tw) {
	t.printf("critical path: %d segments over %.6fs\n", len(cp.Segments), cp.Makespan)
	writeShares := func(label string, ss []Share) {
		t.printf("  %s\n", label)
		for _, s := range ss {
			t.printf("    %-16s %12.6fs %6.1f%%\n", s.Key, s.Seconds, 100*s.Fraction)
		}
	}
	writeShares("blame by resource", cp.ByResource)
	writeShares("blame by device", cp.ByDevice)
	writeShares("blame by event kind", cp.ByKind)
}
