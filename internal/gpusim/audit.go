package gpusim

import "fmt"

// Audit checks the simulator's residency structures against each other, from
// those structures alone, between operations: every device's LRU list is well
// linked and holds its own unpinned blocks, their bytes are memUsed and fit
// the capacity, a failed device holds none; every block of the slab is on one
// LRU list and its tensor's copy chain, or on the free list, and the copies
// on one chain have one positive size; a record's holder set is the devices
// on its chain, and one that holds nothing is the zero record; a host copy is
// on no node set where there is one node; every run of the run slab is freed
// or one set's, its members past the inline word strictly ascending below the
// device (or node) count, and the runs tile the slab without overlap; the
// id↔slot table, where an ID-keyed call has built it, is a bijection over the
// records that hold anything (Audit does not build it); the running movement
// totals are the device sums. It is the tests' structural oracle — this
// package's walk runs it after every operation, internal/sched's tests after
// every run — and costs a pass over everything, so nothing else calls it.
func (c *Cluster) Audit() error {
	ri := c.index
	bad := func(format string, args ...any) error {
		return fmt.Errorf("gpusim: audit: "+format, args...)
	}
	const listed, chained, freed = 1, 2, 3
	state := make([]uint8, len(ri.blocks))
	listedBlocks, freeBlocks := 0, 0
	var move, d2h, evict int64
	for _, d := range c.devices {
		used, n, prev := int64(0), 0, int32(0)
		for i := d.lruHead; i != 0; prev, i = i, ri.blocks[i].next {
			b := &ri.blocks[i]
			if state[i] != 0 || b.prev != prev || int(b.dev) != d.id || b.pinned || b.size <= 0 {
				return bad("device %d: LRU block %d misplaced or empty: %+v", d.id, i, *b)
			}
			state[i], used, n = listed, used+b.size, n+1
		}
		if prev != d.lruTail || n != d.resident || used != d.memUsed || used > d.Capacity() || d.failed && n > 0 {
			return bad("device %d (failed %v): list of %d blocks, %d bytes, ends at %d; device says %d, %d of %d, %d",
				d.id, d.failed, n, used, prev, d.resident, d.memUsed, d.Capacity(), d.lruTail)
		}
		listedBlocks += n
		move, d2h, evict = move+d.stats.H2DBytes+d.stats.P2PBytes, d2h+d.stats.D2HBytes, evict+d.stats.Evictions
	}
	for i := ri.free; i != 0; i = ri.blocks[i].next {
		if state[i] != 0 {
			return bad("free list reaches block %d, which is listed or free already", i)
		}
		state[i], freeBlocks = freed, freeBlocks+1
	}
	if listedBlocks+freeBlocks != len(ri.blocks)-1 || len(c.ids) != len(ri.recs) || len(ri.hosts) != len(ri.recs) ||
		len(ri.held) != len(ri.recs) {
		return bad("%d listed + %d free blocks of %d; %d numbered tensors, %d records, %d host records, %d run refs",
			listedBlocks, freeBlocks, len(ri.blocks)-1, len(c.ids), len(ri.recs), len(ri.hosts), len(ri.held))
	}
	// owned marks the slab entries of the runs met so far, live or freed,
	// claimed counts them: the runs must tile the slab.
	owned, claimed := make([]bool, len(ri.slab)), 0
	claim := func(off uint32, k int) bool {
		end := int(off) + 1<<k
		if end > len(owned) {
			return false
		}
		for i := off; int(i) < end; i++ {
			if owned[i] {
				return false
			}
			owned[i] = true
		}
		claimed += 1 << k
		return true
	}
	for k, offs := range ri.freed {
		for _, off := range offs {
			if !claim(off, k) {
				return bad("freed run %d of class %d overlaps another or leaves the slab of %d", off, k, len(ri.slab))
			}
		}
	}
	// liveRun checks the run of a set with members past the inline word
	// below limit: its own entries, ascending, in range.
	liveRun := func(r runRef, limit int) bool {
		if r.n == 0 || int(r.n) > 1<<r.class || !claim(r.off, int(r.class)) {
			return false
		}
		m, prev := ri.run(r), InlineDevices-1
		for _, d := range m {
			if int(d) <= prev || int(d) >= limit {
				return false
			}
			prev = int(d)
		}
		return true
	}
	for s := range ri.recs {
		r, id := &ri.recs[s], c.ids[s]
		if r.spilled && !liveRun(ri.held[s], len(c.devices)) {
			return bad("tensor %d (slot %d): holder run %+v is not its own ascending list of devices in [%d, %d)",
				id, s, ri.held[s], InlineDevices, len(c.devices))
		}
		holders := ri.holders(r, int32(s))
		var chain DevSet
		size := ri.blocks[r.head].size
		for i := r.head; i != 0; i = ri.blocks[i].chain {
			b := &ri.blocks[i]
			if state[i] != listed || int(b.slot) != s || b.size != size {
				return bad("tensor %d (slot %d): chain block %d misplaced or not %d bytes: %+v", id, s, i, size, *b)
			}
			state[i], chain, listedBlocks = chained, chain.with(int(b.dev)), listedBlocks-1
		}
		if !chain.Equal(holders) || r.spilled != (len(chain.far) > 0) {
			return bad("tensor %d (slot %d): copy chain on %v, holders %v, record %+v",
				id, s, chain.AppendTo(nil), holders.AppendTo(nil), *r)
		}
		if r.head == 0 && !r.onHost {
			continue
		}
		if h := &ri.hosts[s]; r.onHost && (c.numNodes == 1 && h.nodes != 0 ||
			h.far.n > 0 && !liveRun(h.far, c.numNodes)) {
			return bad("tensor %d in slot %d: host copy on nodes %#x and run %+v of %d nodes",
				id, s, h.nodes, h.far, c.numNodes)
		}
		if back, ok := c.slots[id]; c.slotsBuilt && (!ok || int(back) != s) {
			return bad("tensor %d in slot %d: table says slot %d (%v)", id, s, back, ok)
		}
	}
	if claimed != len(ri.slab) {
		return bad("%d of %d slab entries are in no live or freed run", len(ri.slab)-claimed, len(ri.slab))
	}
	if listedBlocks != 0 || move != c.moveBytes || d2h != c.d2hBytes || evict != c.evictions {
		return bad("%d listed blocks on no copy chain; MoveStats (%d, %d, %d), devices sum to (%d, %d, %d)",
			listedBlocks, c.moveBytes, c.d2hBytes, c.evictions, move, d2h, evict)
	}
	return nil
}
