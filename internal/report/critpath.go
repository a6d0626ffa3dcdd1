package report

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"micco/internal/obs"
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

// CriticalPathOf chains backward from makespan through events. At each
// step it selects, among events beginning strictly before the cursor, the
// one reaching closest to the cursor (clipped at it); a shortfall becomes
// an idle segment. Ties break deterministically: later start, then lower
// device, then kind name, then tensor ID — so identical inputs always
// produce the identical path. Fault events, zero-duration events and events
// with a non-finite start or end are ignored, and a non-finite makespan has
// no path. The returned segments exactly partition [0, makespan]:
// consecutive boundaries are equal as floats, not merely close. The kept
// events' indices are put in the order of their starts (sortByStart), and
// the walk is then O(events + segments); the order, the walk's table and
// the segments are one allocation each, and the shares cost one per
// distinct key (DESIGN.md §13).
func CriticalPathOf(events []obs.Event, makespan float64) *CriticalPath {
	cp := &CriticalPath{Makespan: makespan}
	// The candidates, the events a step may select, by index.
	ord := make([]int32, 0, len(events))
	maxDevice := 0
	for i := range events {
		e := &events[i]
		// A NaN bound would pass the ordered comparisons and poison the cursor.
		if e.Kind == obs.EventFault || !finite(e.Start) || !finite(e.End) || e.End-e.Start <= 0 || e.Start >= makespan {
			continue
		}
		ord = append(ord, int32(i))
		maxDevice = max(maxDevice, int(e.Device))
	}
	// By start, and by end within a start, is all the order the steps rely
	// on; laterChain separates the rest where a step has to choose.
	sortByStart(events, ord)
	// cand(i) is the i-th candidate in that order.
	cand := func(i int32) *obs.Event { return &events[ord[i]] }
	// reach[i] is the candidate of ord[0..i] that ends latest, ties broken by
	// laterChain (what it cannot separate is one event twice): what a step
	// selects when nothing before the cursor is still running at it.
	reach := make([]int32, len(ord))
	for i := int32(1); i < int32(len(reach)); i++ {
		reach[i] = reach[i-1]
		if c, b := cand(i), cand(reach[i]); c.End > b.End || (c.End == b.End && laterChain(c, b)) {
			reach[i] = i
		}
	}

	cursor := makespan
	if !finite(makespan) {
		cursor = 0 // no path
	}
	// limit is the number of candidates with start < cursor; it only
	// shrinks as the cursor walks backward.
	limit := int32(len(ord))
	// The walk only notes what each step selects, so that the segments can be
	// counted before the first is made. A step takes its candidate and all
	// above it out of the prefix, so after step k (from 0) limit is at most
	// len(ord)-1-k: the note of step k goes to reach[len(ord)-1-k], which no
	// later step reads. It is the candidate's index, complemented when a gap
	// follows the candidate.
	steps, gaps := len(ord), 0
	head := 0.0 // where the idle stretch from 0 ends, when the path opens with one
	for cursor > 0 {
		for limit > 0 && cand(limit-1).Start >= cursor {
			limit--
		}
		if limit == 0 {
			// Nothing runs before the cursor: the remaining prefix is idle.
			head = cursor
			break
		}
		best := reach[limit-1]
		steps--
		if cand(best).End < cursor {
			// Between this event's reach and the segment above it, the
			// successor was waiting.
			gaps++
			reach[steps] = ^best
		} else {
			// Whatever still runs at the cursor clips to it, so the tie goes
			// to the latest start: the last candidate reaching the cursor, or
			// one of the same start that laterChain prefers, which sits
			// directly below it. All that this scan passes over starts at or
			// after the next cursor and leaves the prefix with it, so the
			// scans of all steps together pass over each candidate once.
			best = limit - 1
			for cand(best).End < cursor {
				best--
			}
			for i := best - 1; i >= 0 && cand(i).Start == cand(best).Start && cand(i).End >= cursor; i-- {
				if laterChain(cand(i), cand(best)) {
					best = i
				}
			}
			reach[steps] = best
		}
		cursor = cand(best).Start
	}
	// The last step is the earliest segment: read from here on, the notes
	// are in the order of time.
	notes := reach[steps:]
	n := len(notes) + gaps
	if head > 0 {
		n++
	}
	b := blame{
		devices:   tally{near: make([]bucket, 2+min(maxDevice, len(ord)))},
		kinds:     tally{near: make([]bucket, len(resourceSlot))},
		resources: tally{near: make([]bucket, numResources)},
	}
	if n > 0 {
		b.segs = make([]Segment, 0, n)
	}
	at := func(note int32) *obs.Event { return cand(max(note, ^note)) }
	if head > 0 {
		dev := -1
		if len(notes) > 0 {
			dev = int(at(notes[0]).Device)
		}
		b.add(Segment{Start: 0, End: head, Device: dev}, idleKind)
	}
	for i, note := range notes {
		e := at(note)
		// The step moved the cursor from where the segment above begins. A
		// gap delayed that segment's device, or before the makespan its own.
		above, delayed := makespan, int(e.Device)
		if i+1 < len(notes) {
			ae := at(notes[i+1])
			above, delayed = ae.Start, int(ae.Device)
		}
		if note >= 0 {
			b.add(Segment{Start: e.Start, End: above, Device: int(e.Device), Tensor: e.Tensor}, e.Kind)
			continue
		}
		b.add(Segment{Start: e.Start, End: e.End, Device: int(e.Device), Tensor: e.Tensor}, e.Kind)
		b.add(Segment{Start: e.End, End: above, Device: delayed}, idleKind)
	}
	cp.Segments = b.segs
	cp.ByDevice = b.devices.shares(makespan)
	cp.ByKind = b.kinds.shares(makespan)
	cp.ByResource = b.resources.shares(makespan)
	return cp
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// sortByStart orders cands, indices of events with finite bounds, by start
// and within a start by end, in place. A recorded trace is nearly in the
// order of its starts (on the ladder's report_build trace an insertion
// pass moves 4.6 entries a candidate), so that pass orders the starts,
// unless it has to move more than sortMoves entries a candidate; past
// that budget a comparison sort by (start, end) bounds the cost of an
// unordered, hand-made trace. After the insertion pass each run of equal
// starts is sorted by end, a comparison sort of the run alone.
func sortByStart(events []obs.Event, cands []int32) {
	if !insertByStart(events, cands, sortMoves*len(cands)) {
		slices.SortFunc(cands, func(a, b int32) int {
			if c := cmp.Compare(events[a].Start, events[b].Start); c != 0 {
				return c
			}
			return cmp.Compare(events[a].End, events[b].End)
		})
		return
	}
	byEnd := func(a, b int32) int { return cmp.Compare(events[a].End, events[b].End) }
	for lo := 0; lo < len(cands); {
		hi, start := lo+1, events[cands[lo]].Start
		for hi < len(cands) && events[cands[hi]].Start == start {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(cands[lo:hi], byEnd)
		}
		lo = hi
	}
}

// sortMoves is how many entries a candidate the insertion pass may move
// before the comparison sort takes over.
const sortMoves = 16

// insertByStart sorts cands by start, stably and in place, and reports
// whether that took at most budget moves. When it did not, cands is left
// in some order of the same indices.
func insertByStart(events []obs.Event, cands []int32, budget int) bool {
	for i := 1; i < len(cands); i++ {
		x := cands[i]
		start, j := events[x].Start, i
		for ; j > 0 && events[cands[j-1]].Start > start; j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = x
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// laterChain orders tie-broken candidates: prefer the later-starting event
// (shortest backward hop), then lower device, kind name, tensor.
func laterChain(a, b *obs.Event) bool {
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

func deviceKey(d int) string {
	if d < 0 {
		return "none"
	}
	return "device " + strconv.Itoa(d)
}

// idleKind stands for a gap where the path's shares are indexed by event
// kind: no fault is ever on the path, so its number is free.
const idleKind = obs.EventFault

// resourceSlot groups the event kinds, and idleKind, as resourceOf groups
// their names.
var resourceSlot = [idleKind + 1]int{
	obs.EventKernel: 0,
	obs.EventH2D:    1,
	obs.EventD2H:    1,
	obs.EventP2P:    2,
	obs.EventInter:  3,
	obs.EventEvict:  4,
	idleKind:        5,
}

const numResources = 6

// blame is the path as it is being made: the segments in the order of time
// and, per device, kind and resource, the sum of their durations in that
// order.
type blame struct {
	segs                      []Segment
	devices, kinds, resources tally
}

// add appends s, which is of kind (idleKind for a gap), under that kind's
// name.
func (b *blame) add(s Segment, kind obs.EventKind) {
	d := s.Duration()
	k := b.kinds.at(int(kind))
	if k.name == "" {
		k.name = "idle"
		if kind != idleKind {
			k.name = kind.String()
		}
	}
	k.seconds += d
	s.Kind = k.name
	dev := b.devices.at(max(s.Device, -1) + 1)
	if dev.name == "" {
		dev.name = deviceKey(s.Device)
	}
	dev.seconds += d
	// An unregistered kind is its own resource, under its own number.
	slot := int(kind)
	if uint(kind) < uint(len(resourceSlot)) {
		slot = resourceSlot[kind]
	}
	r := b.resources.at(slot)
	if r.name == "" {
		r.name = resourceOf(k.name)
	}
	r.seconds += d
	b.segs = append(b.segs, s)
}

// tally sums seconds per small-integer key. Keys inside near index it; the
// rest — a device number beyond the event count, an unregistered kind — go
// through far, so that a hand-made trace cannot size the table.
type tally struct {
	near []bucket
	far  map[int]*bucket
}

// bucket is one key's sum. The name is made when the key is first seen and
// is never empty after that.
type bucket struct {
	name    string
	seconds float64
}

func (t *tally) at(key int) *bucket {
	if uint(key) < uint(len(t.near)) {
		return &t.near[key]
	}
	b := t.far[key]
	if b == nil {
		if t.far == nil {
			t.far = map[int]*bucket{}
		}
		b = new(bucket)
		t.far[key] = b
	}
	return b
}

// shares lists the keys seen, sorted by descending seconds then key for a
// stable order.
func (t *tally) shares(makespan float64) []Share {
	seen := make([]*bucket, 0, len(t.near)+len(t.far))
	for i := range t.near {
		if t.near[i].name != "" {
			seen = append(seen, &t.near[i])
		}
	}
	for _, b := range t.far {
		seen = append(seen, b)
	}
	out := make([]Share, len(seen))
	for i, b := range seen {
		out[i] = Share{Key: b.name, Seconds: b.seconds}
		if makespan > 0 {
			out[i].Fraction = b.seconds / makespan
		}
	}
	slices.SortFunc(out, func(a, b Share) int {
		if a.Seconds != b.Seconds {
			return cmp.Compare(b.Seconds, a.Seconds)
		}
		return cmp.Compare(a.Key, b.Key)
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
