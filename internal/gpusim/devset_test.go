package gpusim

import (
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestDevSetWordBoundaries exercises every DevSet query at the seams of the
// representation: the last inline bit (63), the first far member (64), the
// first odd one (65), and 127/128, once the seam between spill words.
func TestDevSetWordBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		members []int
	}{
		{"inline-edge", []int{63}},
		{"first-spill", []int{64}},
		{"spill-odd", []int{65}},
		{"across-inline-seam", []int{63, 64, 65}},
		{"second-spill-word", []int{127, 128}},
		{"all-seams", []int{0, 63, 64, 65, 127, 128, 200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DevSetOf(tc.members...)
			if got := s.Count(); got != len(tc.members) {
				t.Errorf("Count = %d, want %d", got, len(tc.members))
			}
			if got := s.First(); got != tc.members[0] {
				t.Errorf("First = %d, want %d", got, tc.members[0])
			}
			for _, m := range tc.members {
				if !s.Has(m) {
					t.Errorf("Has(%d) = false, want true", m)
				}
			}
			// Neighbors of every member that are not themselves members must
			// be absent — the off-by-one probes at each seam.
			in := make(map[int]bool, len(tc.members))
			for _, m := range tc.members {
				in[m] = true
			}
			for _, m := range tc.members {
				for _, probe := range []int{m - 1, m + 1} {
					if probe >= 0 && !in[probe] && s.Has(probe) {
						t.Errorf("Has(%d) = true, want false", probe)
					}
				}
			}
			if got := s.AppendTo(nil); !reflect.DeepEqual(got, tc.members) {
				t.Errorf("AppendTo = %v, want %v", got, tc.members)
			}
			// First/NextFrom iteration must visit exactly the members,
			// ascending.
			var iter []int
			for d := s.First(); d >= 0; d = s.NextFrom(d + 1) {
				iter = append(iter, d)
			}
			if !reflect.DeepEqual(iter, tc.members) {
				t.Errorf("First/NextFrom iteration = %v, want %v", iter, tc.members)
			}
			// Removing every member one at a time empties the set.
			w := s
			for _, m := range tc.members {
				w = w.without(m)
				if w.Has(m) {
					t.Errorf("without(%d) kept the member", m)
				}
			}
			if !w.Empty() {
				t.Errorf("set not empty after removing all members: %v", w.AppendTo(nil))
			}
		})
	}
}

// TestDevSetNextFromSeams probes NextFrom with from-values at and across
// the inline seam, including starting points inside gaps and beyond the
// last member.
func TestDevSetNextFromSeams(t *testing.T) {
	s := DevSetOf(5, 63, 65, 128)
	cases := []struct{ from, want int }{
		{-3, 5}, // negative from clamps to 0
		{0, 5},
		{5, 5},
		{6, 63},
		{63, 63},
		{64, 65},  // crossing into the far list
		{65, 65},  // exact hit on a far member
		{66, 128}, // in the gap between far members
		{128, 128},
		{129, -1}, // past the last member
		{512, -1}, // far beyond it
	}
	for _, tc := range cases {
		if got := s.NextFrom(tc.from); got != tc.want {
			t.Errorf("NextFrom(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
}

// TestDevSetEqualIntersectsWidths checks Equal and Intersects across sets
// whose far lists differ in backing: an emptied list is no list.
func TestDevSetEqualIntersectsWidths(t *testing.T) {
	narrow := DevSetOf(3, 63)
	wide := DevSetOf(3, 63, 200).without(200) // same members, wider backing
	if !narrow.Equal(wide) || !wide.Equal(narrow) {
		t.Error("equal membership with different backing widths compares unequal")
	}
	if !narrow.Intersects(wide) {
		t.Error("overlapping sets of different widths report no intersection")
	}
	if DevSetOf(64).Intersects(DevSetOf(65)) {
		t.Error("disjoint spill singletons report intersection")
	}
	if DevSetOf(1).Intersects(DevSetOf(65)) {
		t.Error("inline/spill disjoint sets report intersection")
	}
	if !DevSetOf(128).Intersects(DevSetOf(64, 128)) {
		t.Error("second-spill-word overlap missed")
	}
	if DevSetOf(63, 64).Equal(DevSetOf(63, 65)) {
		t.Error("different spill members compare equal")
	}
	var empty DevSet
	if !empty.Equal(DevSetOf(100).without(100)) {
		t.Error("emptied wide set does not equal the zero value")
	}
}

// TestDevSetInlineWordAndFarList pins the representation at the seams:
// members 0-63 are bits of the inline word, the rest an ascending list in
// which each member appears once, and a set below 64 has no list at all.
func TestDevSetInlineWordAndFarList(t *testing.T) {
	s := DevSetOf(129, 0, 64, 63, 4095, 129)
	if s.w0 != 1|1<<63 {
		t.Errorf("inline word = %#x, want %#x", s.w0, uint64(1|1<<63))
	}
	if want := []uint16{64, 129, 4095}; !reflect.DeepEqual(s.far, want) {
		t.Errorf("far list = %v, want %v", s.far, want)
	}
	if inline := DevSetOf(2, 63); inline.w0 != 1<<2|1<<63 || inline.far != nil {
		t.Errorf("inline set = %#x, far %v; want %#x and no list", inline.w0, inline.far, uint64(1<<2|1<<63))
	}
	if top := DevSetOf(MaxDevices - 1); !reflect.DeepEqual(top.far, []uint16{MaxDevices - 1}) || !top.Has(MaxDevices-1) || top.Has(MaxDevices) {
		t.Errorf("the last device is listed as %v", top.far)
	}
}

// TestDevSetInlineAllocFree pins the fast-path contract: operations on sets
// confined to devices 0-63 must not allocate, membership updates included.
func TestDevSetInlineAllocFree(t *testing.T) {
	s := DevSetOf(2, 40, 63)
	o := DevSetOf(40, 50)
	buf := make([]int, 0, 8)
	avg := testing.AllocsPerRun(1000, func() {
		w := s.with(17).without(17)
		for d := w.First(); d >= 0; d = w.NextFrom(d + 1) {
			_ = d
		}
		_ = w.Intersects(o)
		_ = w.Equal(o)
		_ = w.Count()
		buf = w.AppendTo(buf[:0])
	})
	if avg != 0 {
		t.Errorf("inline DevSet operations allocate %g per run, want 0", avg)
	}
}

// deviceMask is the one-word device bitset the residency index used
// before DevSet, kept here as the reference DevSet's inline word is
// cross-checked against.
type deviceMask uint64

func (m deviceMask) Has(dev int) bool { return m&(1<<uint(dev)) != 0 }

func (m deviceMask) Count() int { return bits.OnesCount64(uint64(m)) }

func (m deviceMask) First() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(m))
}

func (m deviceMask) DropFirst() deviceMask { return m & (m - 1) }

func (m deviceMask) AppendTo(buf []int) []int {
	for ; m != 0; m &= m - 1 {
		buf = append(buf, bits.TrailingZeros64(uint64(m)))
	}
	return buf
}

func (m deviceMask) DevSet() DevSet { return DevSet{w0: uint64(m)} }

// TestDevSetOneWordMatchesDeviceMask cross-checks every DevSet operation
// against the one-word reference on exhaustive small universes and random
// one-word sets: on ≤64 devices the new representation must behave
// identically to the old mask.
func TestDevSetOneWordMatchesDeviceMask(t *testing.T) {
	check := func(m deviceMask) {
		t.Helper()
		s := m.DevSet()
		if s.Count() != m.Count() {
			t.Fatalf("mask %#x: Count %d != %d", uint64(m), s.Count(), m.Count())
		}
		if s.First() != m.First() {
			t.Fatalf("mask %#x: First %d != %d", uint64(m), s.First(), m.First())
		}
		for d := 0; d < 64; d++ {
			if s.Has(d) != m.Has(d) {
				t.Fatalf("mask %#x: Has(%d) %v != %v", uint64(m), d, s.Has(d), m.Has(d))
			}
		}
		if got, want := s.AppendTo(nil), m.AppendTo(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("mask %#x: AppendTo %v != %v", uint64(m), got, want)
		}
	}
	// Exhaustive over a 6-device universe.
	for m := deviceMask(0); m < 1<<6; m++ {
		check(m)
	}
	// Deterministic pseudo-random 64-bit masks (splitmix64 walk).
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		check(deviceMask(x))
	}
}

// without returns s with dev removed, leaving s's list as it was: with's
// inverse, which only the tests need (the index removes a holder through
// residencyIndex.leave).
func (s DevSet) without(dev int) DevSet {
	if dev < InlineDevices {
		s.w0 &^= 1 << uint(dev)
		return s
	}
	if i := search(s.far, dev); i < len(s.far) && int(s.far[i]) == dev {
		s.far = append(s.far[:i:i], s.far[i+1:]...)
	}
	return s
}

// TestDevSetMatchesMapReference holds every DevSet query to a map of
// members under random insertions and removals: at the inline width, just
// past it, the ladder's width and the device cap; on owned sets built with
// with and without and on views of a residency index whose records change
// through enter and leave, which must stay Equal to them; and on pairs of
// very unequal size, a few members against thousands.
func TestDevSetMatchesMapReference(t *testing.T) {
	for _, width := range []int{64, 96, 4096, MaxDevices} {
		rng := rand.New(rand.NewSource(int64(width)))
		// pick mixes the whole range with the inline seam, the top end and
		// the first 200 devices, where sets meet.
		pick := func() int {
			switch rng.Intn(4) {
			case 0:
				return rng.Intn(width)
			case 1:
				return min(width-1, 60+rng.Intn(8))
			case 2:
				return width - 1 - rng.Intn(4)
			}
			return rng.Intn(min(width, 200))
		}
		check := func(what string, s DevSet, ref map[int]bool) {
			t.Helper()
			members := make([]int, 0, len(ref))
			for d := range ref {
				members = append(members, d)
			}
			sort.Ints(members)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("width %d, %s %v: "+format, append([]any{width, what, members}, args...)...)
			}
			if s.Count() != len(members) || s.Empty() != (len(members) == 0) {
				fail("Count %d, Empty %v", s.Count(), s.Empty())
			}
			if got := s.AppendTo(nil); !slices.Equal(got, members) {
				fail("AppendTo = %v", got)
			}
			first := -1
			if len(members) > 0 {
				first = members[0]
			}
			if s.First() != first {
				fail("First = %d", s.First())
			}
			if !s.Equal(DevSetOf(members...)) {
				fail("not Equal to the set of its members")
			}
			for i := 0; i < 40; i++ {
				d := pick()
				if i%4 == 0 && len(members) > 0 {
					d = members[rng.Intn(len(members))] + rng.Intn(3) - 1
				}
				if s.Has(d) != ref[d] {
					fail("Has(%d) = %v", d, s.Has(d))
				}
				next := -1
				if k := sort.SearchInts(members, d); k < len(members) {
					next = members[k]
				}
				if s.NextFrom(d) != next {
					fail("NextFrom(%d) = %d, want %d", d, s.NextFrom(d), next)
				}
			}
			for _, d := range []int{-1, width, MaxDevices} {
				if s.Has(d) || d >= 0 && s.NextFrom(d) != -1 {
					fail("Has or NextFrom answers for device %d, outside the cluster", d)
				}
			}
		}
		intersects := func(a, b map[int]bool) bool {
			for d := range a {
				if b[d] {
					return true
				}
			}
			return false
		}

		const nSets = 6
		ri := newResidencyIndex()
		ri.recs = make([]tensorRec, nSets)
		ri.held = make([]runRef, nSets)
		owned := make([]DevSet, nSets)
		refs := make([]map[int]bool, nSets)
		for k := range refs {
			refs[k] = map[int]bool{}
		}
		for step := 0; step < 2000; step++ {
			k, d := rng.Intn(nSets), pick()
			r := &ri.recs[k]
			switch {
			case !refs[k][d]:
				owned[k] = owned[k].with(d)
				ri.enter(r, int32(k), d)
				refs[k][d] = true
			case rng.Intn(3) > 0: // removals lag insertions: the sets grow
				owned[k] = owned[k].without(d)
				ri.leave(r, int32(k), d)
				delete(refs[k], d)
			}
			view := ri.holders(r, int32(k))
			check("owned set", owned[k], refs[k])
			check("index view", view, refs[k])
			if !view.Equal(owned[k]) || r.spilled != (len(view.far) > 0) {
				t.Fatalf("width %d step %d: slot %d's view %v (spilled %v) is not the owned set %v",
					width, step, k, view.AppendTo(nil), r.spilled, owned[k].AppendTo(nil))
			}
			j := rng.Intn(nSets)
			if want := intersects(refs[k], refs[j]); view.Intersects(owned[j]) != want || owned[j].Intersects(view) != want {
				t.Fatalf("width %d step %d: sets %d and %d: Intersects %v, want %v", width, step, k, j, !want, want)
			}
			if want := maps.Equal(refs[k], refs[j]); owned[k].Equal(ri.holders(&ri.recs[j], int32(j))) != want {
				t.Fatalf("width %d step %d: sets %d and %d: Equal %v, want %v", width, step, k, j, !want, want)
			}
		}

		// Very unequal sizes: every third device against a few members.
		big, bigRef := DevSet{}, map[int]bool{}
		for d := 0; d < width; d += 3 {
			big, bigRef[d] = big.with(d), true
		}
		check("every third device", big, bigRef)
		for i := 0; i < 200; i++ {
			small, smallRef := DevSet{}, map[int]bool{}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				d := pick()
				small, smallRef[d] = small.with(d), true
			}
			want := intersects(smallRef, bigRef)
			if big.Intersects(small) != want || small.Intersects(big) != want {
				t.Fatalf("width %d: every third device against %v: Intersects %v, want %v", width, small.AppendTo(nil), !want, want)
			}
		}
	}
}
