package numeric

// Recycled numeric tensor storage.
//
// bufArena is the free list of dead tensors' buffers — each a real plane
// followed by an imaginary plane of float64 values — keyed by exact
// capacity. Contractions draw their output storage from it, so a
// steady-state numeric run holds only the live working set instead of
// every tensor the stream ever produced.
//
// It has one owner: the executor's goroutine draws every destination and
// returns every dead buffer, so there is no lock and no per-worker tier —
// a buffer put back is the next one drawn, while it is still warm in
// cache.
type bufArena struct {
	free   map[int][][]float64
	misses int // draws the free list could not serve
}

func newBufArena() *bufArena {
	return &bufArena{free: make(map[int][][]float64)}
}

// get pops the most recently recycled buffer of exactly the given
// capacity in float64 values, or returns nil (the batch then allocates
// fresh storage). Buffer identity never affects results: outputs are
// fully overwritten.
func (a *bufArena) get(vals int) []float64 {
	l := a.free[vals]
	if len(l) == 0 {
		a.misses++
		return nil
	}
	buf := l[len(l)-1]
	l[len(l)-1] = nil
	a.free[vals] = l[:len(l)-1]
	return buf
}

// put recycles a dead tensor's storage.
func (a *bufArena) put(buf []float64) {
	if c := cap(buf); c > 0 {
		a.free[c] = append(a.free[c], buf)
	}
}
