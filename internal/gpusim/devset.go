package gpusim

import "math/bits"

// InlineDevices is the width of DevSet's inline fast path: sets whose
// members are all below this bound live in a single machine word with no
// heap storage, which is what keeps the scheduler placement path at zero
// allocations per operation on clusters of up to 64 devices.
const InlineDevices = 64

// MaxDevices bounds Config.NumDevices. It is a sanity cap on simulator
// memory (one Device with maps and clocks per simulated GPU), not a mask
// ABI limit: DevSet holder sets widen past 64 devices automatically.
// (Before topology API v2 this constant was 64 and a hard residency-index
// ceiling; the one-word representation survives as DevSet's inline fast
// path.) It also keeps every device index inside the int32 an obs.Event
// stores: Validate rejects a larger count, so no index is truncated.
const MaxDevices = 1 << 16

// The conversion fails to compile if MaxDevices outgrows obs.Event.Device.
const _ int32 = MaxDevices

// DevSet is a set of device IDs: a variable-width bitset with bit i set
// when device i is a member. It is the unit of the cluster's constant-time
// residency index — schedulers classify reuse patterns and probe holder
// sets with word operations instead of scanning per-device residency maps.
//
// Representation. Members below InlineDevices (64) live in an inline word;
// members at 64 and above spill into a heap word slice sized for the
// cluster. A set never touching device 64+ never allocates, regardless of
// cluster size, so the ≤64-device hot path — and sparse holder sets of
// low-numbered devices on huge clusters — stay allocation-free. The zero
// value is the empty set.
//
// Value semantics. DevSet values returned by query APIs (HoldersMask,
// FailedMask, ...) are read-only views: the spill words may alias index
// storage, so they are valid until the next cluster mutation and must not
// be written through. All DevSet methods are pure.
//
// Comparison. DevSet is not ==-comparable (it carries a slice); use Equal.
type DevSet struct {
	w0   uint64
	rest []uint64 // words 1..; bit j of rest[k] is device 64*(k+1)+j
}

// DevSetOf returns the set of the given device IDs. Intended for tests and
// configuration code; the spill slice, when needed, is sized to the
// largest member.
func DevSetOf(devs ...int) DevSet {
	var s DevSet
	for _, d := range devs {
		s = s.with(d, 0)
	}
	return s
}

// with returns s ∪ {dev}. restWords, when positive, sizes a fresh spill
// allocation (clusters pass their word count so all spills share one
// length); zero sizes it to fit dev.
func (s DevSet) with(dev int, restWords int) DevSet {
	if dev < InlineDevices {
		s.w0 |= 1 << uint(dev)
		return s
	}
	w := (dev - InlineDevices) >> 6
	if w >= len(s.rest) {
		n := restWords
		if n <= w {
			n = w + 1
		}
		grown := make([]uint64, n)
		copy(grown, s.rest)
		s.rest = grown
	}
	s.rest[w] |= 1 << uint(dev&63)
	return s
}

// Empty reports whether the set has no members.
func (s DevSet) Empty() bool {
	if s.w0 != 0 {
		return false
	}
	for _, w := range s.rest {
		if w != 0 {
			return false
		}
	}
	return true
}

// Has reports whether device dev is in the set.
func (s DevSet) Has(dev int) bool {
	if uint(dev) < InlineDevices {
		return s.w0&(1<<uint(dev)) != 0
	}
	if dev < 0 {
		return false
	}
	w := (dev - InlineDevices) >> 6
	return w < len(s.rest) && s.rest[w]&(1<<uint(dev&63)) != 0
}

// Count returns the number of devices in the set.
func (s DevSet) Count() int {
	n := bits.OnesCount64(s.w0)
	for _, w := range s.rest {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the lowest device ID in the set, or -1 when empty. Holder
// sets enumerate in ascending device order, matching the scan order of the
// former per-device loops.
func (s DevSet) First() int {
	if s.w0 != 0 {
		return bits.TrailingZeros64(s.w0)
	}
	for k, w := range s.rest {
		if w != 0 {
			return InlineDevices + k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextFrom returns the lowest member ≥ from, or -1 when none exists. With
// First it forms the allocation-free ascending iteration idiom that works
// at any width:
//
//	for dev := s.First(); dev >= 0; dev = s.NextFrom(dev + 1) {
//		...
//	}
func (s DevSet) NextFrom(from int) int {
	if from < 0 {
		from = 0
	}
	if from < InlineDevices {
		if w := s.w0 >> uint(from); w != 0 {
			return from + bits.TrailingZeros64(w)
		}
		from = InlineDevices
	}
	k := (from - InlineDevices) >> 6
	if k >= len(s.rest) {
		return -1
	}
	if w := s.rest[k] >> uint(from&63); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for k++; k < len(s.rest); k++ {
		if w := s.rest[k]; w != 0 {
			return InlineDevices + k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendTo appends the set's device IDs to buf in ascending order and
// returns the extended slice, allocating only when buf lacks capacity.
func (s DevSet) AppendTo(buf []int) []int {
	for w := s.w0; w != 0; w &= w - 1 {
		buf = append(buf, bits.TrailingZeros64(w))
	}
	for k, rw := range s.rest {
		base := InlineDevices + k<<6
		for w := rw; w != 0; w &= w - 1 {
			buf = append(buf, base+bits.TrailingZeros64(w))
		}
	}
	return buf
}

// Intersects reports whether the sets share a member, without
// materializing the intersection.
func (s DevSet) Intersects(o DevSet) bool {
	if s.w0&o.w0 != 0 {
		return true
	}
	n := len(s.rest)
	if len(o.rest) < n {
		n = len(o.rest)
	}
	for k := 0; k < n; k++ {
		if s.rest[k]&o.rest[k] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether the sets have identical membership (spill words
// beyond the shorter set count as absent members, so differently sized
// backing slices with equal content compare equal).
func (s DevSet) Equal(o DevSet) bool {
	if s.w0 != o.w0 {
		return false
	}
	long, short := s.rest, o.rest
	if len(long) < len(short) {
		long, short = short, long
	}
	for k, w := range long {
		var ow uint64
		if k < len(short) {
			ow = short[k]
		}
		if w != ow {
			return false
		}
	}
	return true
}

// Word returns the i-th 64-bit word of the set (word 0 covers devices
// 0-63); words beyond the backing storage are zero.
func (s DevSet) Word(i int) uint64 {
	if i == 0 {
		return s.w0
	}
	if i-1 < len(s.rest) {
		return s.rest[i-1]
	}
	return 0
}
