package numeric

import "micco/internal/workload"

// readyList orders the whole contraction stream for execution: a pair is
// ready once both its operands exist, and Run takes ready pairs lowest
// rank first. A constructed workload makes every output a new tensor,
// produced before any read of it, so read-after-write is the only hazard
// and ready pairs are mutually independent: any set of them is safe to run
// as one batch whose (pair, group) products execute in any order on any
// worker (tensor.BatchPipeline.Run).
//
// The rank is a demand order: a post-order walk from the last stage's
// pairs back through their producers, then every pair the walk did not
// reach, in stream order. A tensor is produced close to the pairs that
// read it, so intermediates die soon after they are made instead of
// waiting at a stage barrier for every producer of the stage (DESIGN.md
// §14 has the live-set numbers). Pairs are numbered in stream order and
// read in place through the stage offsets; the stream is never copied.
type readyList struct {
	stages []workload.Stage
	off    []int32 // off[si] is the number of stage si's first pair; off[len(stages)] the pair count
	// The consumers of pair i — the pairs reading its output, once per
	// operand — are cons[cstart[i]:cstart[i+1]].
	cstart, cons []int32
	pending      []int32 // by pair: operands not yet produced
	rank         []int32 // by pair: its place in the demand order
	heap         []int32 // the ready pairs, a binary min-heap on rank
}

// buildLiveness is the executor's set-up over the stream. It counts, per
// slot, how many operand reads the stream performs — pinned slots are
// marked pinned instead — and builds the ready list: each pair's
// consumers, pending operands and rank, from a producer table by slot, with
// the pairs that read only inputs ready.
func buildLiveness(w *workload.Workload, pin []int) ([]int32, readyList) {
	reads := make([]int32, len(w.TensorIDs()))
	prod := make([]int32, len(reads)) // by slot: the producing pair, -1 for an input
	for s := range prod {
		prod[s] = -1
	}
	r := readyList{stages: w.Stages, off: make([]int32, len(w.Stages)+1)}
	for si := range w.Stages {
		r.off[si+1] = r.off[si] + int32(len(w.Stages[si].Pairs))
	}
	n := int(r.off[len(w.Stages)])
	r.cstart = make([]int32, n+1)
	r.pending = make([]int32, n)
	// First pass: read counts, pending operands and, in cstart[p+1], how
	// many reads pair p's output gets.
	for i := range n {
		a, b, out := r.pair(int32(i)).Slots()
		for _, s := range [2]int{a, b} {
			reads[s]++
			if p := prod[s]; p >= 0 {
				r.pending[i]++
				r.cstart[p+1]++
			}
		}
		prod[out] = int32(i)
	}
	for _, s := range pin {
		reads[s] = pinned
	}
	for i := range n {
		r.cstart[i+1] += r.cstart[i]
	}
	// Second pass: fill each consumer list from its end, so that cstart
	// walks back to every list's start.
	r.cons = make([]int32, r.cstart[n])
	fill := r.cstart[1:]
	for i := n - 1; i >= 0; i-- {
		a, b, _ := r.pair(int32(i)).Slots()
		for _, s := range [2]int{b, a} {
			if p := prod[s]; p >= 0 {
				fill[p]--
				r.cons[fill[p]] = int32(i)
			}
		}
	}
	copy(r.cstart, r.cstart[1:])
	r.cstart[n] = int32(len(r.cons))
	r.heap = r.rankDemand(prod)
	for i := range n {
		if r.pending[i] == 0 {
			r.push(int32(i))
		}
	}
	return reads, r
}

// rankDemand numbers the pairs in demand order (readyList's comment) by
// a post-order walk on an explicit stack — a FromStages chain can be as
// deep as the stream — and returns the stack's storage, empty, for the
// heap.
func (r *readyList) rankDemand(prod []int32) []int32 {
	n := len(r.pending)
	r.rank = make([]int32, n)
	for i := range r.rank {
		r.rank[i] = -1 // not reached; -2 once expanded
	}
	stack := make([]int32, 0, n)
	next := int32(0)
	walk := func(root int32) {
		stack = append(stack, root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v < 0 { // ^v's producers are ranked: rank it
				r.rank[^v] = next
				next++
				continue
			}
			if r.rank[v] != -1 {
				continue
			}
			r.rank[v] = -2
			stack = append(stack, ^v)
			a, b, _ := r.pair(v).Slots()
			for _, s := range [2]int{b, a} { // A's producer is ranked first
				if p := prod[s]; p >= 0 && r.rank[p] == -1 {
					stack = append(stack, p)
				}
			}
		}
	}
	if last := len(r.stages) - 1; last >= 0 {
		for i := r.off[last]; i < r.off[last+1]; i++ {
			walk(i)
		}
	}
	for i := range int32(n) {
		walk(i)
	}
	return stack[:0]
}

// pair returns pair i of the stream, in place.
func (r *readyList) pair(i int32) *workload.Pair {
	lo, hi := 0, len(r.stages)-1 // the stage: the last whose first pair is <= i
	for lo < hi {
		m := (lo + hi + 1) / 2
		if r.off[m] <= i {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return &r.stages[lo].Pairs[i-r.off[lo]]
}

// produced settles pair i's output: each consumer has one operand fewer
// to wait for, and one left waiting for none is ready.
func (r *readyList) produced(i int32) {
	for _, c := range r.cons[r.cstart[i]:r.cstart[i+1]] {
		if r.pending[c]--; r.pending[c] == 0 {
			r.push(c)
		}
	}
}

// push adds ready pair i to the heap.
func (r *readyList) push(i int32) {
	h := append(r.heap, i)
	for k := len(h) - 1; k > 0; {
		up := (k - 1) / 2
		if r.rank[h[up]] <= r.rank[h[k]] {
			break
		}
		h[up], h[k] = h[k], h[up]
		k = up
	}
	r.heap = h
}

// pop removes and returns the ready pair of lowest rank; the heap must not
// be empty.
func (r *readyList) pop() int32 {
	h := r.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for k := 0; ; {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && r.rank[h[c+1]] < r.rank[h[c]] {
			c++
		}
		if r.rank[h[k]] <= r.rank[h[c]] {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	r.heap = h
	return top
}
