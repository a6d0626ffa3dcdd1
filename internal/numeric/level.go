package numeric

import "micco/internal/workload"

// levelizer partitions one stage's contraction stream into dependency
// levels: level(p) is one past the highest level among the in-stage
// producers of p's operands (read-after-write). A constructed workload
// makes every output a new tensor, produced after every read of it, so
// read-after-write is the only hazard: pairs within one level are mutually
// independent — no operand produced by a peer — so each level is safe to
// run as batches whose (pair, group) products execute in any order on any
// worker (tensor.BatchPipeline.Run); levels execute in order. A stage both
// front ends emit is entirely level 0 and runs as one level; a FromStages
// stage that reads its own outputs splits into as many levels as its
// longest chain. All scratch (the slot array, buckets, the level-sorted
// order) is reused across stages, so steady-state partitioning allocates
// nothing.
type levelizer struct {
	prod   []int32 // by slot: the producing pair's level + 1 in this stage, else 0
	lvls   []int32
	order  []workload.Pair
	starts []int
	cur    []int
	levels [][]workload.Pair
}

// partition splits pairs into dependency levels, preserving stream order
// within each level. The returned slices alias either the input (single
// level) or the levelizer's scratch — valid only until the next call.
func (l *levelizer) partition(pairs []workload.Pair) [][]workload.Pair {
	if cap(l.lvls) < len(pairs) {
		l.lvls = make([]int32, len(pairs))
	}
	lvls := l.lvls[:len(pairs)]
	maxLvl := int32(0)
	for i := range pairs {
		a, b, out := pairs[i].Slots()
		lvl := max(l.prod[a], l.prod[b])
		lvls[i] = lvl
		maxLvl = max(maxLvl, lvl)
		l.prod[out] = lvl + 1
	}
	for i := range pairs {
		_, _, out := pairs[i].Slots()
		l.prod[out] = 0
	}
	l.levels = l.levels[:0]
	if maxLvl == 0 {
		l.levels = append(l.levels, pairs)
		return l.levels
	}
	// Stable counting sort by level into the reused order scratch.
	n := int(maxLvl) + 1
	if cap(l.starts) < n+1 {
		l.starts = make([]int, n+1)
	}
	starts := l.starts[:n+1]
	for i := range starts {
		starts[i] = 0
	}
	for _, lv := range lvls {
		starts[lv+1]++
	}
	for i := 1; i <= n; i++ {
		starts[i] += starts[i-1]
	}
	if cap(l.order) < len(pairs) {
		l.order = make([]workload.Pair, len(pairs))
	}
	order := l.order[:len(pairs)]
	if cap(l.cur) < n {
		l.cur = make([]int, n)
	}
	cur := l.cur[:n]
	copy(cur, starts[:n])
	for i, p := range pairs {
		order[cur[lvls[i]]] = p
		cur[lvls[i]]++
	}
	for k := 0; k < n; k++ {
		l.levels = append(l.levels, order[starts[k]:starts[k+1]])
	}
	return l.levels
}
