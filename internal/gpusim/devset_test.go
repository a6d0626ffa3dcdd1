package gpusim

import (
	"math/bits"
	"reflect"
	"testing"
)

// TestDevSetWordBoundaries exercises every DevSet query at the seams of the
// representation: the last inline bit (63), the first spill bit (64), the
// first odd spill bit (65), and the seam between spill words (127/128).
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
// the word seams, including starting points inside gaps and beyond the
// backing storage.
func TestDevSetNextFromSeams(t *testing.T) {
	s := DevSetOf(5, 63, 65, 128)
	cases := []struct{ from, want int }{
		{-3, 5}, // negative from clamps to 0
		{0, 5},
		{5, 5},
		{6, 63},
		{63, 63},
		{64, 65},  // crossing into the first spill word
		{65, 65},  // exact hit on a spill member
		{66, 128}, // crossing between spill words
		{128, 128},
		{129, -1}, // past the last member
		{512, -1}, // far beyond the backing storage
	}
	for _, tc := range cases {
		if got := s.NextFrom(tc.from); got != tc.want {
			t.Errorf("NextFrom(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
}

// TestDevSetEqualIntersectsWidths checks Equal and Intersects across sets
// whose backing storage differs in width: absent spill words count as zero.
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

// TestDevSetWordAndInlineMask covers the raw-word accessor at the seams:
// the inline word, the spill words, and past the backing storage.
func TestDevSetWordAndInlineMask(t *testing.T) {
	s := DevSetOf(0, 63, 64, 129)
	if got := s.Word(0); got != 1|1<<63 {
		t.Errorf("Word(0) = %#x, want %#x", got, uint64(1|1<<63))
	}
	if got := s.Word(1); got != 1 {
		t.Errorf("Word(1) = %#x, want 1", got)
	}
	if got := s.Word(2); got != 2 {
		t.Errorf("Word(2) = %#x, want 2", got)
	}
	if got := s.Word(9); got != 0 {
		t.Errorf("Word(9) = %#x, want 0 beyond backing storage", got)
	}
	inline := DevSetOf(2, 63)
	if got := inline.Word(0); got != 1<<2|1<<63 {
		t.Errorf("inline Word(0) = %#x, want %#x", got, uint64(1<<2|1<<63))
	}
	if got := inline.Word(1); got != 0 {
		t.Errorf("inline Word(1) = %#x, want 0: the set has no spill", got)
	}
}

// TestDevSetInlineAllocFree pins the fast-path contract: operations on sets
// confined to devices 0-63 must not allocate, membership updates included.
func TestDevSetInlineAllocFree(t *testing.T) {
	s := DevSetOf(2, 40, 63)
	o := DevSetOf(40, 50)
	buf := make([]int, 0, 8)
	avg := testing.AllocsPerRun(1000, func() {
		w := s.with(17, 0).without(17)
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

// without returns s with dev removed, modifying the spill slice in place
// when present: with's inverse, which only the tests need (the index
// removes a holder through residencyIndex.leave).
func (s DevSet) without(dev int) DevSet {
	if dev < InlineDevices {
		s.w0 &^= 1 << uint(dev)
		return s
	}
	if w := (dev - InlineDevices) >> 6; w < len(s.rest) {
		s.rest[w] &^= 1 << uint(dev&63)
	}
	return s
}
