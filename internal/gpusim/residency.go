package gpusim

import "micco/internal/tensor"

// maskOf returns the singleton set {dev}. The result carries no spill
// storage for dev < InlineDevices, so singleton probes stay allocation-free
// on any cluster size.
func maskOf(dev int) DevSet { return DevSet{}.with(dev, 0) }

// tensorRec is everything the cluster knows about where one tensor lives:
// the devices holding it, and its host copy. One map probe reaches all of
// it, and the simulator then works through the pointer.
type tensorRec struct {
	// holders is the set of devices with a resident copy. Devices update it
	// inside install/drop (hold/unhold), so it is exact after every
	// allocation, eviction, discard and device loss.
	holders DevSet
	// spill is the record's own run of slab words for holders past the
	// inline word, lent to the set while it has any (nil on clusters of up
	// to InlineDevices devices).
	spill []uint64
	// hostNodes is the set of nodes whose host partition has the copy
	// (bit n = node n). Maintained on multi-node clusters only: with one
	// node, host memory is one pool and onHost says it all.
	hostNodes DevSet
	// host is the host copy's descriptor, meaningful while onHost.
	host   tensor.Desc
	onHost bool
}

// recChunk is how many records (and their spill words) one slab holds.
const recChunk = 256

// residencyIndex maps a tensor ID to its record. A record exists exactly
// while the tensor has a holder or a host copy.
//
// Records are carved from slabs the index keeps for the cluster's life, and
// so are the spill words of their two sets: on clusters wider than
// InlineDevices (or with more than 64 nodes) every record owns a fixed run
// of words, so no set operation on an indexed set allocates. A record that
// goes away is recycled with its words, and reset puts every slab back in
// play, so a cluster that has run once runs again without allocating here.
// Clusters of up to 64 devices in one node carry no words at all: their
// sets are bare inline words.
type residencyIndex struct {
	restWords int // holder-set spill words: ceil((NumDevices-64)/64), 0 for ≤64
	nodeWords int // host-node-set spill words, likewise over the node count
	recs      map[uint64]*tensorRec
	chunks    [][]tensorRec
	words     [][]uint64 // words[i] backs the sets of chunks[i]
	carved    int        // records carved from the slabs since the last reset
	free      []*tensorRec
}

func spillWords(n int) int {
	if n <= InlineDevices {
		return 0
	}
	return (n - InlineDevices + 63) >> 6
}

func newResidencyIndex(numDevices, numNodes int) *residencyIndex {
	return &residencyIndex{
		restWords: spillWords(numDevices),
		nodeWords: spillWords(numNodes),
		recs:      make(map[uint64]*tensorRec),
	}
}

// add returns tensor id's record, creating an empty one if there is none.
// The caller gives it a holder or a host copy before anything else runs.
func (ri *residencyIndex) add(id uint64) *tensorRec {
	if r := ri.recs[id]; r != nil {
		return r
	}
	var r *tensorRec
	if k := len(ri.free); k > 0 {
		r, ri.free = ri.free[k-1], ri.free[:k-1]
	} else {
		r = ri.carve()
	}
	ri.recs[id] = r
	return r
}

// carve takes the next record off the slabs and gives it its words. No
// pass clears a slab: the node words are cleared here, the holder words
// when a set takes them (hold), each just ahead of the write that follows.
func (ri *residencyIndex) carve() *tensorRec {
	ci, j := ri.carved/recChunk, ri.carved%recChunk
	per := ri.restWords + ri.nodeWords
	if ci == len(ri.chunks) {
		ri.chunks = append(ri.chunks, make([]tensorRec, recChunk))
		ri.words = append(ri.words, make([]uint64, recChunk*per))
	}
	ri.carved++
	r := &ri.chunks[ci][j]
	*r = tensorRec{}
	if per > 0 {
		w := ri.words[ci][j*per : (j+1)*per : (j+1)*per]
		r.spill = w[:ri.restWords:ri.restWords]
		r.hostNodes.rest = w[ri.restWords:]
		clear(r.hostNodes.rest)
	}
	return r
}

// hold adds device dev to the holder set. The set takes the record's spill
// words when its first member past the inline word joins; until then it is
// a bare word, and reads as cheaply as one on any cluster width.
func (r *tensorRec) hold(dev int) {
	if dev >= InlineDevices && r.holders.rest == nil {
		clear(r.spill)
		r.holders.rest = r.spill
	}
	r.holders = r.holders.with(dev, 0)
}

// unhold removes device dev from the holder set and reports whether that
// emptied it. An empty set has let go of its spill: it is the zero DevSet.
func (r *tensorRec) unhold(dev int) bool {
	r.holders = r.holders.without(dev)
	if !r.holders.Empty() {
		return false
	}
	r.holders.rest = nil
	return true
}

// release forgets tensor id if nothing holds it any more, and recycles its
// record. r must not be used afterwards.
func (ri *residencyIndex) release(id uint64, r *tensorRec) {
	if r.onHost || !r.holders.Empty() {
		return
	}
	delete(ri.recs, id)
	ri.free = append(ri.free, r)
}

// reset empties the index in one pass, keeping the map's capacity and
// every slab. Used by Cluster.Reset instead of a release per tensor.
func (ri *residencyIndex) reset() {
	clear(ri.recs)
	ri.carved = 0
	ri.free = ri.free[:0]
}

// HoldersMask returns the set of devices holding tensor id. One O(1) map
// probe; the set supports allocation-free intersection, counting and
// iteration (see DevSet). The result is a read-only view into index
// storage, valid until the next cluster mutation: once the tensor's last
// copy is gone its words are handed to another tensor.
func (c *Cluster) HoldersMask(id uint64) DevSet {
	if r := c.index.recs[id]; r != nil {
		return r.holders
	}
	return DevSet{}
}

// AppendHoldersOf appends the IDs of devices holding tensor id to buf in
// ascending order and returns the extended slice. Callers that reuse buf
// across queries pay no allocation.
func (c *Cluster) AppendHoldersOf(buf []int, id uint64) []int {
	return c.HoldersMask(id).AppendTo(buf)
}
