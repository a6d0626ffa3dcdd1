package gpusim

import (
	"math/bits"
	"slices"
)

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
// stores and the uint16 a DevSet lists a far member in: Validate rejects a
// larger count, so no index is truncated.
const MaxDevices = 1 << 16

// The conversions fail to compile if MaxDevices outgrows obs.Event.Device
// or a far member.
const (
	_ int32  = MaxDevices
	_ uint16 = MaxDevices - 1
)

// DevSet is a set of device IDs. It is the unit of the cluster's residency
// index — schedulers classify reuse patterns and probe holder sets with
// word operations and short searches instead of scanning per-device
// residency maps.
//
// Representation. Members below InlineDevices (64) are bits of an inline
// word; members at 64 and above, the far members, are listed in ascending
// order as uint16s. A set costs what it holds, not what the cluster could
// hold: a holder set of six devices on 4 096 is a word and six entries. A
// set never touching device 64+ has no list, so the ≤64-device hot path —
// and sparse sets of low-numbered devices on huge clusters — never
// allocate. The zero value is the empty set.
//
// Value semantics. DevSet values returned by query APIs (HoldersAt,
// FailedMask, ...) are read-only views: the far list may alias index
// storage, so they are valid until the next cluster mutation and must not
// be written through. Index views are capped at their length, so with
// copies rather than writes into the index. All DevSet methods are pure.
//
// Comparison. DevSet is not ==-comparable (it carries a slice); use Equal.
type DevSet struct {
	w0  uint64
	far []uint16 // members ≥ InlineDevices, strictly ascending
}

// DevSetOf returns the set of the given device IDs, which must be in
// [0, MaxDevices). Intended for tests and configuration code.
func DevSetOf(devs ...int) DevSet {
	var s DevSet
	for _, d := range devs {
		s = s.with(d)
	}
	return s
}

// with returns s ∪ {dev}. A member past the last is appended, so a set
// built in ascending order grows as a slice does; one inside the list is
// inserted into a copy, leaving s's list as it was.
func (s DevSet) with(dev int) DevSet {
	if dev < InlineDevices {
		s.w0 |= 1 << uint(dev)
		return s
	}
	i := search(s.far, dev)
	switch {
	case i == len(s.far):
		s.far = append(s.far, uint16(dev))
	case int(s.far[i]) != dev:
		far := make([]uint16, len(s.far)+1)
		copy(far, s.far[:i])
		far[i] = uint16(dev)
		copy(far[i+1:], s.far[i:])
		s.far = far
	}
	return s
}

// search returns the index of the first far member ≥ dev: len(far) when
// there is none.
func search(far []uint16, dev int) int {
	lo, hi := 0, len(far)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(far[m]) < dev {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Empty reports whether the set has no members.
func (s DevSet) Empty() bool { return s.w0 == 0 && len(s.far) == 0 }

// Has reports whether device dev is in the set.
func (s DevSet) Has(dev int) bool {
	if uint(dev) < InlineDevices {
		return s.w0&(1<<uint(dev)) != 0
	}
	i := search(s.far, dev)
	return i < len(s.far) && int(s.far[i]) == dev
}

// Count returns the number of devices in the set.
func (s DevSet) Count() int { return bits.OnesCount64(s.w0) + len(s.far) }

// First returns the lowest device ID in the set, or -1 when empty. Holder
// sets enumerate in ascending device order, matching the scan order of the
// former per-device loops.
func (s DevSet) First() int {
	if s.w0 != 0 {
		return bits.TrailingZeros64(s.w0)
	}
	if len(s.far) > 0 {
		return int(s.far[0])
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
	}
	if i := search(s.far, from); i < len(s.far) {
		return int(s.far[i])
	}
	return -1
}

// AppendTo appends the set's device IDs to buf in ascending order and
// returns the extended slice, allocating only when buf lacks capacity.
func (s DevSet) AppendTo(buf []int) []int {
	for w := s.w0; w != 0; w &= w - 1 {
		buf = append(buf, bits.TrailingZeros64(w))
	}
	for _, d := range s.far {
		buf = append(buf, int(d))
	}
	return buf
}

// Intersects reports whether the sets share a member, without
// materializing the intersection: it walks the shorter far list and
// searches the rest of the longer one for each member in turn.
func (s DevSet) Intersects(o DevSet) bool {
	if s.w0&o.w0 != 0 {
		return true
	}
	short, long := s.far, o.far
	if len(long) < len(short) {
		short, long = long, short
	}
	for _, d := range short {
		i := search(long, int(d))
		if i == len(long) {
			return false
		}
		if long[i] == d {
			return true
		}
		long = long[i:]
	}
	return false
}

// Equal reports whether the sets have identical membership.
func (s DevSet) Equal(o DevSet) bool {
	return s.w0 == o.w0 && slices.Equal(s.far, o.far)
}
