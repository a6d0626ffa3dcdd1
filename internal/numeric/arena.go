package numeric

import "sync"

// Recycled numeric tensor storage, in two tiers.
//
// bufArena is one run's free list of dead tensors' buffers — each a real
// plane followed by an imaginary plane of float64 values — keyed by exact
// capacity. Contractions draw their output storage from it, so a
// steady-state numeric run holds only the live working set instead of
// every tensor the stream ever produced. It has one owner: the executor's
// goroutine draws every destination and returns every dead buffer, so
// there is no lock and no per-worker tier — a buffer put back is the next
// one drawn, while it is still warm in cache.
//
// Behind it sits the process-wide tier, one sync.Pool per capacity. A draw
// the run's free list cannot serve falls through to it before anything is
// allocated, and a closed run hands it every buffer on its free list, so
// the next run — of the same stream or another with tensors of the same
// size — reuses the working set instead of allocating and zeroing it
// again. Only dead buffers cross runs: a tensor still held at Close
// (pinned, or live) stays with the caller. A sync.Pool drops what nobody
// drew within two garbage collections, so the tier keeps nothing alive
// once runs stop.
type bufArena struct {
	free   map[int][][]float64 // nil once the arena is released
	shared int                 // this run's draws the process-wide tier served
	misses int                 // this run's draws neither tier could serve
}

func newBufArena() *bufArena {
	return &bufArena{free: make(map[int][][]float64)}
}

// get pops the most recently recycled buffer of exactly the given
// capacity in float64 values — from the run's free list, else from the
// process-wide tier — or returns nil (the caller then allocates fresh
// storage). Buffer identity never affects results: every value of a
// drawn buffer is overwritten before it is read.
func (a *bufArena) get(vals int) []float64 {
	if l := a.free[vals]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[vals] = l[:len(l)-1]
		return buf
	}
	if p, ok := sparePool(vals).Get().(*[]float64); ok {
		a.shared++
		return *p
	}
	a.misses++
	return nil
}

// put recycles a dead tensor's storage.
func (a *bufArena) put(buf []float64) {
	if c := cap(buf); c > 0 {
		a.free[c] = append(a.free[c], buf)
	}
}

// release hands every buffer on the free list to the process-wide tier.
// The arena serves no run afterwards; a second release hands nothing.
func (a *bufArena) release() {
	for vals, l := range a.free {
		p := sparePool(vals)
		for _, buf := range l {
			p.Put(&buf)
		}
	}
	a.free = nil
}

// released reports whether release has run.
func (a *bufArena) released() bool { return a.free == nil }

// spares is the process-wide tier: a sync.Pool of dead buffers per exact
// capacity. Entries are *[]float64: sync.Pool is meant to hold pointers.
var spares struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

// sparePool returns the process-wide pool of buffers of vals values.
func sparePool(vals int) *sync.Pool {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	p := spares.pools[vals]
	if p == nil {
		if spares.pools == nil {
			spares.pools = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		spares.pools[vals] = p
	}
	return p
}
