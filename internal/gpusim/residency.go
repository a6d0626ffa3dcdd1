package gpusim

import "micco/internal/tensor"

// tensorRec is everything the cluster knows about where one tensor lives.
// Records sit in one array indexed by the tensor's slot; a tensor that is
// nowhere has the zero record.
type tensorRec struct {
	// holders is the set of devices with a resident copy; install and drop
	// keep it exact. Its spill is the record's own run of words, taken when
	// the first member past the inline word joins, let go when it empties.
	holders DevSet
	// head is the first block of the tensor's copy chain (block.chain links
	// the rest): one block per holder, in no particular order, 0 for none.
	head   int32
	onHost bool
	// hostNodes is the set of nodes whose host partition has the copy.
	// Maintained on multi-node clusters only: with one node, host memory is
	// one pool and onHost says it all.
	hostNodes DevSet
	host      tensor.Desc // the host copy's descriptor, meaningful while onHost
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
	recs      []tensorRec
	// words backs the spilled sets: slot s owns words[s*per:(s+1)*per],
	// holder words first. When the array grows, a set that has taken its run
	// keeps the old one, which it alone reads and writes.
	words  []uint64
	blocks []block // the slab; blocks[0] is the nil block
	free   int32   // most recently dropped block, chained through next
}

func spillWords(n int) int {
	if n <= InlineDevices {
		return 0
	}
	return (n - InlineDevices + 63) >> 6
}

// join adds member m to set, one of slot's two, whose n spill words start
// at word off of the slot's run: the set takes them, cleared, with its first
// member past the inline word, and until then reads as the bare word it is.
func (ri *residencyIndex) join(set *DevSet, m int, slot int32, off, n int) {
	if m >= InlineDevices && set.rest == nil {
		base := int(slot)*(ri.restWords+ri.nodeWords) + off
		set.rest = ri.words[base : base+n : base+n]
		clear(set.rest)
	}
	*set = set.with(m, 0)
}

// find returns the block of r's tensor on device dev, 0 when dev holds none.
func (ri *residencyIndex) find(r *tensorRec, dev int) int32 {
	if !r.holders.Has(dev) {
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
	ri.words = append(ri.words[:0], make([]uint64, n*(ri.restWords+ri.nodeWords))...)
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
		c.index.recs = append(c.index.recs, tensorRec{})
		c.index.words = append(c.index.words, make([]uint64, c.index.restWords+c.index.nodeWords)...)
	}
	return s
}

// rec returns id's record, nil for an ID the cluster has not met.
func (c *Cluster) rec(id uint64) *tensorRec {
	if s, ok := c.slotTable()[id]; ok {
		return &c.index.recs[s]
	}
	return nil
}

// HoldersMask returns the set of devices holding tensor id: HoldersAt behind
// one probe of the id→slot table.
func (c *Cluster) HoldersMask(id uint64) DevSet {
	if r := c.rec(id); r != nil {
		return r.holders
	}
	return DevSet{}
}

// HoldersAt returns the set of devices holding the tensor in slot (see
// BindTensors): a read-only view into index storage, valid until the next
// cluster mutation, that intersects, counts and iterates without allocating.
func (c *Cluster) HoldersAt(slot int) DevSet { return c.index.recs[slot].holders }
