package sched

import "micco/internal/gpusim"

// The pieces of Algorithms 1 and 2 that every MICCO placer shares: flat
// MICCO runs them over the whole cluster, the two-level scheduler over the
// node it chose.

// HolderCandidates is Algorithm 1's steps I and II over the device range
// [lo, hi), for a pair whose operands' holder sets are ma and mb. Step I
// appends to buf the devices holding both operands whose StageLoad is under
// BalanceNum+bound1; only when it finds none does step II append the
// devices holding either under BalanceNum+bound2 — A's holders, then B's
// holders that do not hold A, each ascending, the order in which random
// tie-breaks draw. It returns the extended buffer and the index of the
// bound that gated it: 0 for step I, 1 for step II, -1 when both come up
// empty and step III is next.
//
// Iteration starts at lo and stops at the range's edge, so the cost is the
// range's share of the holder sets. A caller that knows the range holds no
// copy of an operand may pass the empty set for it and pay no scan of that
// set. Neither step filters down devices: a failed device's residency is
// dropped the moment it fails, so it is never a holder.
func (c *Context) HolderCandidates(buf []int, ma, mb gpusim.DevSet, lo, hi, bound1, bound2 int) ([]int, int) {
	n := len(buf)
	if ma.Intersects(mb) {
		lim := c.BalanceNum + bound1
		for it := ma.NextFrom(lo); it >= 0 && it < hi; it = ma.NextFrom(it + 1) {
			if mb.Has(it) && c.StageLoad[it] < lim {
				buf = append(buf, it)
			}
		}
		if len(buf) > n {
			return buf, 0
		}
	}
	lim := c.BalanceNum + bound2
	for it := ma.NextFrom(lo); it >= 0 && it < hi; it = ma.NextFrom(it + 1) {
		if c.StageLoad[it] < lim {
			buf = append(buf, it)
		}
	}
	for it := mb.NextFrom(lo); it >= 0 && it < hi; it = mb.NextFrom(it + 1) {
		if !ma.Has(it) && c.StageLoad[it] < lim {
			buf = append(buf, it)
		}
	}
	if len(buf) > n {
		return buf, 1
	}
	return buf, -1
}

// LeastLoaded returns the live device in [lo, hi) with the least StageLoad,
// the lowest ID among equals, or -1 when every device in the range is down.
// It is the placers' defensive fallback for when no candidate step finds a
// device under its bound: pathological bounds, or a stage whose recovery
// re-placements pushed every survivor past the limit.
func (c *Context) LeastLoaded(lo, hi int) int {
	best := -1
	for it := lo; it < hi; it++ {
		if !c.Down.Has(it) && (best < 0 || c.StageLoad[it] < c.StageLoad[best]) {
			best = it
		}
	}
	return best
}

// FilterMin compacts ids down to the ones attaining the minimum of key,
// preserving their order, writing into ids' own backing array (the write
// index never passes the read index, so no element is read after being
// overwritten). It allocates nothing, and fewer than two ids it returns
// as they are without calling key. Algorithm 2's final choice is two
// passes of it, primary key then secondary.
func FilterMin(ids []int, key func(int) float64) []int {
	if len(ids) < 2 {
		return ids
	}
	best := key(ids[0])
	out := ids[:1]
	for _, id := range ids[1:] {
		v := key(id)
		switch {
		case v < best:
			best = v
			out = append(ids[:0], id)
		case v == best:
			out = append(out, id)
		}
	}
	return out
}
