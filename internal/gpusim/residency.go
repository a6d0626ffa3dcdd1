package gpusim

import "micco/internal/tensor"

// tensorRec is where one tensor lives, as placement asks it: the holder set
// and the head of the copy chain, in 16 bytes, so that four records share a
// cache line and install, drop and find touch one. Records sit in one array
// indexed by the tensor's slot; a tensor that is nowhere has the zero
// record. What only the host paths read is in the slot's hostRec.
type tensorRec struct {
	// w0 is the holder set's inline word, devices 0-63; the devices past it
	// are in the slot's run of spill words while spilled is set (see
	// residencyIndex.holders). install and drop keep the set exact: the run
	// is taken, cleared, when the first member past the inline word joins,
	// and let go when the set empties.
	w0 uint64
	// head is the first block of the tensor's copy chain (block.chain links
	// the rest): one block per holder, in no particular order, 0 for none.
	head    int32
	onHost  bool
	spilled bool
}

// hostRec is the cold half of a slot's record: the host copy. Its fields
// mean something only while the record's onHost is set; hostCopy resets
// them when a copy appears, so nothing clears them when one goes.
type hostRec struct {
	// nodes is the set of nodes whose host partition has the copy.
	// Maintained on multi-node clusters only: with one node, host memory is
	// one pool and onHost says it all.
	nodes DevSet
	desc  tensor.Desc
}

// block is one resident copy: an allocation on a device's memory pool.
// Blocks live in one cluster-wide slab and name each other by index, so the
// slab may grow under them; index 0 is the nil block. A block is on its
// device's LRU list and its tensor's copy chain, or on the free list.
type block struct {
	desc tensor.Desc
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
// The arrays are kept for the cluster's life: Reset clears the records and
// rewinds the slab, a set clears its words as it takes them, and a cluster
// that has run once runs again without allocating here.
type residencyIndex struct {
	restWords int // holder-set spill words: ceil((NumDevices-64)/64), 0 for ≤64
	nodeWords int // host-node-set spill words, likewise over the node count
	per       int // restWords + nodeWords
	recs      []tensorRec
	hosts     []hostRec // by slot, beside recs
	// words backs the spilled sets: slot s owns words[s*per:(s+1)*per],
	// holder words first. A holder set's run is found from its slot, so it
	// follows the array when the array grows; a host-node set holds its run
	// as a slice and keeps the old one, which it alone reads and writes.
	words  []uint64
	blocks []block // the slab; blocks[0] is the nil block
	free   int32   // most recently dropped block, chained through next
}

func newResidencyIndex(devices, nodes int) *residencyIndex {
	rest, node := spillWords(devices), spillWords(nodes)
	return &residencyIndex{restWords: rest, nodeWords: node, per: rest + node, blocks: make([]block, 1)}
}

func spillWords(n int) int {
	if n <= InlineDevices {
		return 0
	}
	return (n - InlineDevices + 63) >> 6
}

// spill returns slot's run of holder words.
func (ri *residencyIndex) spill(slot int32) []uint64 {
	base := int(slot) * ri.per
	return ri.words[base : base+ri.restWords : base+ri.restWords]
}

// holders returns the holder set of slot's record r: its inline word and,
// once spilled, a view of the slot's run.
func (ri *residencyIndex) holders(r *tensorRec, slot int32) DevSet {
	s := DevSet{w0: r.w0}
	if r.spilled {
		s.rest = ri.spill(slot)
	}
	return s
}

// holds reports whether device dev is in the holder set of slot's record r.
func (ri *residencyIndex) holds(r *tensorRec, slot int32, dev int) bool {
	if dev < InlineDevices {
		return r.w0&(1<<uint(dev)) != 0
	}
	return r.spilled && ri.words[int(slot)*ri.per+(dev-InlineDevices)>>6]&(1<<uint(dev&63)) != 0
}

// enter adds device dev to the holder set of slot's record r.
func (ri *residencyIndex) enter(r *tensorRec, slot int32, dev int) {
	if dev < InlineDevices {
		r.w0 |= 1 << uint(dev)
		return
	}
	run := ri.spill(slot)
	if !r.spilled {
		clear(run)
		r.spilled = true
	}
	run[(dev-InlineDevices)>>6] |= 1 << uint(dev&63)
}

// leave removes device dev, a member, from the holder set of slot's record
// r; a set that empties lets go of its run.
func (ri *residencyIndex) leave(r *tensorRec, slot int32, dev int) {
	if dev < InlineDevices {
		r.w0 &^= 1 << uint(dev)
	} else {
		ri.words[int(slot)*ri.per+(dev-InlineDevices)>>6] &^= 1 << uint(dev&63)
	}
	if r.spilled && r.w0 == 0 && ri.holders(r, slot).Empty() {
		r.spilled = false
	}
}

// hostOn adds node n to the host nodes h of slot's record: the set takes
// its run, cleared, with its first member past the inline word, and until
// then reads as the bare word it is.
func (ri *residencyIndex) hostOn(h *hostRec, slot int32, n int) {
	if n >= InlineDevices && h.nodes.rest == nil {
		base := int(slot)*ri.per + ri.restWords
		h.nodes.rest = ri.words[base : base+ri.nodeWords : base+ri.nodeWords]
		clear(h.nodes.rest)
	}
	h.nodes = h.nodes.with(n, 0)
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
	ri.words = append(ri.words[:0], make([]uint64, n*ri.per)...)
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
		ri.words = append(ri.words, make([]uint64, ri.per)...)
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
