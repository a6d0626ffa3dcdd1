package numeric

import "micco/internal/workload"

// levelizer partitions one stage's contraction stream into dependency
// levels: level(p) is one past the highest level among the in-stage
// producers of p's operands (read-after-write), the previous producer of
// p's output (write-after-write) and the previous readers of p's output
// (write-after-read). Pairs within one level are mutually independent —
// no output duplicated, no operand produced or overwritten by a peer —
// so each level is safe to run as batches whose (pair, group) products
// execute in any order on any worker (tensor.BatchPipeline.Run); levels
// execute in order. A stage both front ends emit is entirely level 0 and
// runs as one level; hand-built FromStages chains split into as many
// levels as their longest chain.
// All scratch (maps, buckets, the level-sorted order) is reused across
// stages, so steady-state partitioning allocates nothing.
type levelizer struct {
	prod   map[uint64]int // id -> producing pair's level + 1
	read   map[uint64]int // id -> max reading level + 1 of current version
	lvls   []int
	order  []workload.Pair
	starts []int
	cur    []int
	levels [][]workload.Pair
}

// partition splits pairs into dependency levels, preserving stream order
// within each level. The returned slices alias either the input (single
// level) or the levelizer's scratch — valid only until the next call.
func (l *levelizer) partition(pairs []workload.Pair) [][]workload.Pair {
	if l.prod == nil {
		l.prod = make(map[uint64]int)
		l.read = make(map[uint64]int)
	}
	clear(l.prod)
	clear(l.read)
	if cap(l.lvls) < len(pairs) {
		l.lvls = make([]int, len(pairs))
	}
	lvls := l.lvls[:len(pairs)]
	maxLvl := 0
	for i, p := range pairs {
		lvl := 0
		if v := l.prod[p.A.ID]; v > lvl {
			lvl = v
		}
		if v := l.prod[p.B.ID]; v > lvl {
			lvl = v
		}
		if v := l.prod[p.Out.ID]; v > lvl {
			lvl = v
		}
		if v := l.read[p.Out.ID]; v > lvl {
			lvl = v
		}
		lvls[i] = lvl
		if lvl > maxLvl {
			maxLvl = lvl
		}
		if lvl+1 > l.read[p.A.ID] {
			l.read[p.A.ID] = lvl + 1
		}
		if lvl+1 > l.read[p.B.ID] {
			l.read[p.B.ID] = lvl + 1
		}
		// The write opens a fresh version: readers of the old one are
		// already fenced by the floors above.
		l.prod[p.Out.ID] = lvl + 1
		l.read[p.Out.ID] = 0
	}
	l.levels = l.levels[:0]
	if maxLvl == 0 {
		l.levels = append(l.levels, pairs)
		return l.levels
	}
	// Stable counting sort by level into the reused order scratch.
	n := maxLvl + 1
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
