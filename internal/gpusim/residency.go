package gpusim

import "slices"

// tensorRec is where one tensor lives, as placement asks it: the holder set
// and the head of the copy chain, in 16 bytes, so that four records share a
// cache line and install, drop and find touch one. Records sit in one array
// indexed by the tensor's slot; a tensor that is nowhere has the zero
// record. What only the host paths read is in the slot's hostRec.
type tensorRec struct {
	// w0 is the holder set's inline word, devices 0-63; the devices past it
	// are in the slot's run of the slab while spilled is set (see
	// residencyIndex.holders). install and drop keep the set exact: the run
	// is taken when the first member past the inline word joins, and let go
	// when the last one leaves.
	w0 uint64
	// head is the first block of the tensor's copy chain (block.chain links
	// the rest): one block per holder, in no particular order, 0 for none.
	head    int32
	onHost  bool
	spilled bool
}

// hostRec is the cold half of a slot's record: where the host copy is. Its
// fields mean something only while the record's onHost is set; hostCopy
// resets them when a copy appears, and DiscardAt lets the node run go when
// one goes. Which tensor it is, is the slot's (Cluster.ids).
type hostRec struct {
	// nodes and far are the set of nodes whose host partition has the copy:
	// the inline word of nodes 0-63 and the run of those past it (none while
	// far.n is 0). Maintained on multi-node clusters only: with one node,
	// host memory is one pool and onHost says it all.
	nodes uint64
	far   runRef
}

// runRef names a run of the index's slab: a set's far members, ascending,
// in slab[off:off+n], with room for 1<<class. A run is taken with its
// set's first far member, moves to the next class when a member finds it
// full, and is let go when its last member leaves; n is 0 for a set with
// no run.
type runRef struct {
	off   uint32
	n     uint16
	class uint8
}

// runClasses is the number of run sizes: the largest, 1<<16, fits every
// device or node past the inline word.
const runClasses = 17

// The subtraction fails to compile if the largest run cannot hold a set.
const _ uint = 1<<(runClasses-1) - (MaxDevices - InlineDevices)

// block is one resident copy: an allocation on a device's memory pool.
// Blocks live in one cluster-wide slab and name each other by index, so the
// slab may grow under them; index 0 is the nil block. A block is on its
// device's LRU list and its tensor's copy chain, or on the free list. It
// carries what is per copy; the tensor's ID is its slot's (Cluster.ids).
type block struct {
	size int64 // the allocation's bytes: the tensor's, the same on every copy
	// readyAt is when the data is usable: the completion time of the copy
	// that installed it (ahead of the compute queue only under AsyncCopy).
	readyAt float64
	// prev/next chain the device's LRU order (front = least recently
	// used); next doubles as the free-list link.
	prev, next int32
	chain      int32 // the tensor's next copy, on another device
	slot       int32 // the tensor
	dev        int32 // the device
	dirty      bool  // produced on-device and not yet written back to host
	pinned     bool  // in use by the op being scheduled; not evictable
}

// residencyIndex is the simulator's per-tensor and per-copy state. Nothing
// in it is keyed by tensor ID — the cluster turns an ID into a slot at its
// boundary — and nothing is per device: the block of tensor t on device d
// is found through t's record, where holders.Has(d) answers a miss at once
// and a hit walks a chain as long as the holder set (six at most on the
// ladder's 4096 devices, where a per-device table would be 4096 maps).
//
// A set's members past the inline word live in a run of one pointer-free
// slab, sized by what the set holds: a tensor on six far devices keeps six
// entries in a run of eight, whatever the cluster's width.
//
// The arrays are kept for the cluster's life: Reset clears the records and
// rewinds both slabs, and a cluster that has run once runs again without
// allocating here.
type residencyIndex struct {
	recs  []tensorRec
	hosts []hostRec            // by slot, beside recs
	held  []runRef             // by slot: the holder set's run, read only while spilled
	slab  []uint16             // every run, back to back, live or freed
	freed [runClasses][]uint32 // offsets of the freed runs, by class
	// blocks is the block slab; blocks[0] is the nil block. free is the
	// most recently dropped block, chained through next.
	blocks []block
	free   int32
}

func newResidencyIndex() *residencyIndex {
	return &residencyIndex{blocks: make([]block, 1)}
}

// reset empties the index: every record is the zero record and both slabs
// are rewound, their capacity kept. Host records and run refs go unread
// until a copy or a far member appears and resets them.
func (ri *residencyIndex) reset() {
	clear(ri.recs)
	ri.blocks, ri.free = ri.blocks[:1], 0
	ri.slab = ri.slab[:0]
	for k := range ri.freed {
		ri.freed[k] = ri.freed[k][:0]
	}
}

// run returns the members of run r, capped at their count so that an
// append to the view copies instead of writing the slab.
func (ri *residencyIndex) run(r runRef) []uint16 {
	end := r.off + uint32(r.n)
	return ri.slab[r.off:end:end]
}

// take returns the offset of a run of class k: the last one freed, else
// room at the slab's end.
func (ri *residencyIndex) take(k uint8) uint32 {
	if f := ri.freed[k]; len(f) > 0 {
		ri.freed[k] = f[:len(f)-1]
		return f[len(f)-1]
	}
	off := len(ri.slab)
	ri.slab = slices.Grow(ri.slab, 1<<k)[:off+1<<k]
	return uint32(off)
}

// insert adds dev, past the inline word and not yet a member, to the set
// whose run is r, taking a run for the first member and moving a full one
// to the next class.
func (ri *residencyIndex) insert(r *runRef, dev int) {
	switch {
	case r.n == 0:
		*r = runRef{off: ri.take(0)}
	case int(r.n) == 1<<r.class:
		old := *r
		*r = runRef{off: ri.take(old.class + 1), n: old.n, class: old.class + 1}
		copy(ri.slab[r.off:], ri.run(old))
		ri.release(old)
	}
	m := ri.slab[r.off : r.off+uint32(r.n)+1]
	i := search(m[:r.n], dev)
	copy(m[i+1:], m[i:])
	m[i] = uint16(dev)
	r.n++
}

// remove takes dev, a member past the inline word, out of the set whose run
// is r; the run is let go with its last member.
func (ri *residencyIndex) remove(r *runRef, dev int) {
	m := ri.run(*r)
	i := search(m, dev)
	copy(m[i:], m[i+1:])
	if r.n--; r.n == 0 {
		ri.release(*r)
	}
}

// release puts run r on its class's free stack. The ref that named it is
// not read again: its count is 0, or the flag that makes it readable
// (spilled, onHost) is cleared with it.
func (ri *residencyIndex) release(r runRef) {
	ri.freed[r.class] = append(ri.freed[r.class], r.off)
}

// holders returns the holder set of slot's record r: its inline word and,
// once spilled, a view of the slot's run.
func (ri *residencyIndex) holders(r *tensorRec, slot int32) DevSet {
	s := DevSet{w0: r.w0}
	if r.spilled {
		s.far = ri.run(ri.held[slot])
	}
	return s
}

// holds reports whether device dev is in the holder set of slot's record r.
func (ri *residencyIndex) holds(r *tensorRec, slot int32, dev int) bool {
	if dev < InlineDevices {
		return r.w0&(1<<uint(dev)) != 0
	}
	return r.spilled && ri.holders(r, slot).Has(dev)
}

// enter adds device dev, not a member, to the holder set of slot's record r.
func (ri *residencyIndex) enter(r *tensorRec, slot int32, dev int) {
	if dev < InlineDevices {
		r.w0 |= 1 << uint(dev)
		return
	}
	if !r.spilled {
		ri.held[slot], r.spilled = runRef{}, true
	}
	ri.insert(&ri.held[slot], dev)
}

// leave removes device dev, a member, from the holder set of slot's record
// r; the last member past the inline word lets go of the run.
func (ri *residencyIndex) leave(r *tensorRec, slot int32, dev int) {
	if dev < InlineDevices {
		r.w0 &^= 1 << uint(dev)
		return
	}
	h := &ri.held[slot]
	ri.remove(h, dev)
	r.spilled = h.n > 0
}

// hostNodes returns the set of nodes of host record h: a view, like
// holders.
func (ri *residencyIndex) hostNodes(h *hostRec) DevSet {
	s := DevSet{w0: h.nodes}
	if h.far.n > 0 {
		s.far = ri.run(h.far)
	}
	return s
}

// hostOn adds node n to the host nodes of h.
func (ri *residencyIndex) hostOn(h *hostRec, n int) {
	if n < InlineDevices {
		h.nodes |= 1 << uint(n)
	} else if !ri.hostNodes(h).Has(n) {
		ri.insert(&h.far, n)
	}
}

// find returns the block of slot's tensor on device dev, 0 when dev holds
// none.
func (ri *residencyIndex) find(slot int32, dev int) int32 {
	r := &ri.recs[slot]
	if !ri.holds(r, slot, dev) {
		return 0
	}
	i := r.head
	for ri.blocks[i].dev != int32(dev) {
		i = ri.blocks[i].chain
	}
	return i
}

// BindTensors adopts a workload's tensor numbering (Workload.TensorIDs):
// slot s is tensor ids[s] from here on, to the slot-keyed methods
// (HoldersAt, RegisterHostAt, ExecContractionAt, DiscardAt) and the
// ID-keyed ones alike. Binding builds no id→slot table: the first ID-keyed
// call after it does (slotTable). Binding the table already bound changes and
// costs nothing; another table empties the cluster as Reset does. ids is
// shared, not copied, and must not change while bound. A cluster nobody
// binds numbers tensors itself, in the order its ID-keyed methods meet them.
func (c *Cluster) BindTensors(ids []uint64) {
	n, ri := len(ids), c.index
	if n == len(c.ids) && (n == 0 || &ids[0] == &c.ids[0]) {
		return
	}
	c.ids = ids[:n:n] // an ID met later is appended to a copy
	c.slotsBuilt = false
	ri.recs = append(ri.recs[:0], make([]tensorRec, n)...)
	ri.hosts = append(ri.hosts[:0], make([]hostRec, n)...)
	ri.held = append(ri.held[:0], make([]runRef, n)...)
	c.Reset()
}

// slotTable returns the id→slot table, the inverse of ids, building it on the
// first call after a bind. Of two slots a hand-built table gives one ID,
// the first wins, as it does for the workload's pairs.
func (c *Cluster) slotTable() map[uint64]int32 {
	if !c.slotsBuilt {
		if c.slots == nil {
			c.slots = make(map[uint64]int32, len(c.ids))
		}
		clear(c.slots)
		for s := len(c.ids) - 1; s >= 0; s-- {
			c.slots[c.ids[s]] = int32(s)
		}
		c.slotsBuilt = true
	}
	return c.slots
}

// slot returns id's slot in the id→slot table, which only the ID-keyed
// methods read. An ID it has not met gets the next slot.
func (c *Cluster) slot(id uint64) int32 {
	slots := c.slotTable()
	s, ok := slots[id]
	if !ok {
		s = int32(len(c.ids))
		c.ids = append(c.ids, id)
		slots[id] = s
		ri := c.index
		ri.recs = append(ri.recs, tensorRec{})
		ri.hosts = append(ri.hosts, hostRec{})
		ri.held = append(ri.held, runRef{})
	}
	return s
}

// HoldersMask returns the set of devices holding tensor id: HoldersAt behind
// one probe of the id→slot table.
func (c *Cluster) HoldersMask(id uint64) DevSet {
	if s, ok := c.slotTable()[id]; ok {
		return c.HoldersAt(int(s))
	}
	return DevSet{}
}

// HoldersAt returns the set of devices holding the tensor in slot (see
// BindTensors): a read-only view into index storage, valid until the next
// cluster mutation, that intersects, counts and iterates without allocating.
func (c *Cluster) HoldersAt(slot int) DevSet {
	return c.index.holders(&c.index.recs[slot], int32(slot))
}
