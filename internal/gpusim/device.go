package gpusim

import (
	"fmt"

	"micco/internal/obs"
	"micco/internal/tensor"
)

// DeviceStats accumulates per-device counters over a simulation run.
type DeviceStats struct {
	KernelTime   float64 // seconds spent in contraction kernels
	TransferTime float64 // seconds spent in H2D + P2P transfers
	EvictTime    float64 // seconds spent evicting (incl. dirty write-back)
	AllocTime    float64 // seconds spent in pool allocations
	H2DBytes     int64
	P2PBytes     int64
	D2HBytes     int64
	Kernels      int64
	Evictions    int64
	ReuseHits    int64 // input operands found already resident
	ColdMisses   int64 // input operands fetched from host or peer
	FLOPs        int64
}

// Sub returns the counter-wise difference s - o, for charging deltas of
// TotalStats snapshots (e.g. fault-injected evictions) to an accounting
// bucket.
func (s DeviceStats) Sub(o DeviceStats) DeviceStats {
	return DeviceStats{
		KernelTime:   s.KernelTime - o.KernelTime,
		TransferTime: s.TransferTime - o.TransferTime,
		EvictTime:    s.EvictTime - o.EvictTime,
		AllocTime:    s.AllocTime - o.AllocTime,
		H2DBytes:     s.H2DBytes - o.H2DBytes,
		P2PBytes:     s.P2PBytes - o.P2PBytes,
		D2HBytes:     s.D2HBytes - o.D2HBytes,
		Kernels:      s.Kernels - o.Kernels,
		Evictions:    s.Evictions - o.Evictions,
		ReuseHits:    s.ReuseHits - o.ReuseHits,
		ColdMisses:   s.ColdMisses - o.ColdMisses,
		FLOPs:        s.FLOPs - o.FLOPs,
	}
}

// Add accumulates o into s.
func (s *DeviceStats) Add(o DeviceStats) {
	s.KernelTime += o.KernelTime
	s.TransferTime += o.TransferTime
	s.EvictTime += o.EvictTime
	s.AllocTime += o.AllocTime
	s.H2DBytes += o.H2DBytes
	s.P2PBytes += o.P2PBytes
	s.D2HBytes += o.D2HBytes
	s.Kernels += o.Kernels
	s.Evictions += o.Evictions
	s.ReuseHits += o.ReuseHits
	s.ColdMisses += o.ColdMisses
	s.FLOPs += o.FLOPs
}

// Device models one simulated GPU: a compute-queue clock, an optional
// copy-engine clock (Config.AsyncCopy), a memory pool with LRU
// replacement, and the set of resident tensors.
type Device struct {
	id int
	c  *Cluster // for its config, residency index and dirty-device set
	// node is the node the device belongs to (Config.NodeSize grouping).
	node      int
	clock     float64 // compute queue
	copyClock float64 // copy engine queue (used when cfg.AsyncCopy)
	memUsed   int64
	memPeak   int64 // high-water mark of memUsed over the run
	// lruHead/lruTail bound the device's LRU list of blocks in the cluster's
	// slab (head = least recently used, 0 = empty); resident is its length.
	lruHead, lruTail int32
	resident         int
	stats            DeviceStats
	// failed marks the device as removed by fault injection
	// (Cluster.FailDevice); operations issued to it return ErrDeviceLost.
	failed bool
	// capOverride, when positive, caps the memory pool below
	// Config.MemoryBytes (Cluster.SetMemoryCapacity).
	capOverride int64
}

func newDevice(id int, c *Cluster) *Device {
	return &Device{id: id, c: c, node: c.cfg.NodeOf(id)}
}

// markDirty records that one of the device's scheduler-visible keys (clock,
// memUsed, capacity, failed) is about to change; see dirtySet.
func (d *Device) markDirty() { d.c.dirty.mark(d.id) }

// ID returns the device index within its cluster.
func (d *Device) ID() int { return d.id }

// Node returns the node the device belongs to.
func (d *Device) Node() int { return d.node }

// Clock returns the device's compute-queue time in seconds.
func (d *Device) Clock() float64 { return d.clock }

// CopyClock returns the copy-engine queue time; it equals Clock() when the
// copy engine is synchronous (Config.AsyncCopy off).
func (d *Device) CopyClock() float64 {
	if d.c.cfg.AsyncCopy {
		return d.copyClock
	}
	return d.clock
}

// busyUntil is the later of the device's queues.
func (d *Device) busyUntil() float64 {
	if d.c.cfg.AsyncCopy && d.copyClock > d.clock {
		return d.copyClock
	}
	return d.clock
}

// MemUsed returns the bytes currently allocated on the device.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree returns the bytes still available on the device.
func (d *Device) MemFree() int64 { return d.Capacity() - d.memUsed }

// Capacity returns the device's effective memory-pool size in bytes: the
// configured MemoryBytes, or the override below it while a fault plan's
// mem-shrink is in effect.
func (d *Device) Capacity() int64 {
	if d.capOverride > 0 {
		return d.capOverride
	}
	return d.c.cfg.MemoryBytes
}

// Failed reports whether the device has been removed by fault injection.
func (d *Device) Failed() bool { return d.failed }

// MemPeak returns the high-water mark of allocated bytes over the run,
// the paper's per-device memory-pressure observable.
func (d *Device) MemPeak() int64 { return d.memPeak }

// Stats returns a copy of the device's counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// Holds reports whether tensor id is resident on the device.
func (d *Device) Holds(id uint64) bool {
	s, ok := d.c.slotTable()[id]
	return ok && d.c.HoldersAt(int(s)).Has(d.id)
}

// ResidentCount returns the number of tensors resident on the device.
func (d *Device) ResidentCount() int { return d.resident }

// lruPushBack appends block i at the most-recently-used end.
func (d *Device) lruPushBack(i int32) {
	blocks := d.c.index.blocks
	blocks[i].prev, blocks[i].next = d.lruTail, 0
	if d.lruTail != 0 {
		blocks[d.lruTail].next = i
	} else {
		d.lruHead = i
	}
	d.lruTail = i
}

// lruRemove unlinks block i from the LRU list.
func (d *Device) lruRemove(i int32) {
	blocks := d.c.index.blocks
	prev, next := blocks[i].prev, blocks[i].next
	if prev != 0 {
		blocks[prev].next = next
	} else {
		d.lruHead = next
	}
	if next != 0 {
		blocks[next].prev = prev
	} else {
		d.lruTail = prev
	}
}

// touch marks a resident block most-recently-used.
func (d *Device) touch(i int32) {
	if d.lruTail != i {
		d.lruRemove(i)
		d.lruPushBack(i)
	}
}

// install records a new resident block of slot's tensor (most recently
// used, head of the copy chain) and returns its index: the block dropped
// last, else the slab's next. The slab may move: no *block survives a call.
func (d *Device) install(desc *tensor.Desc, dirty bool, slot int32) int32 {
	ri := d.c.index
	i := ri.free
	if i != 0 {
		ri.free = ri.blocks[i].next
	} else {
		i = int32(len(ri.blocks))
		ri.blocks = append(ri.blocks, block{})
	}
	r := &ri.recs[slot]
	ri.blocks[i] = block{desc: *desc, dirty: dirty, chain: r.head, slot: slot, dev: int32(d.id)}
	r.head = i
	ri.enter(r, slot, d.id)
	d.lruPushBack(i)
	d.resident++
	d.markDirty()
	d.memUsed += desc.Bytes()
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	return i
}

// drop removes resident block i without any timing cost (used by eviction
// and invalidation; callers account for cost) and puts it on the free
// list. The block must not be used after drop returns.
func (d *Device) drop(i int32) {
	ri := d.c.index
	b := &ri.blocks[i]
	r := &ri.recs[b.slot]
	d.lruRemove(i)
	if r.head == i {
		r.head = b.chain
	} else {
		p := r.head
		for ri.blocks[p].chain != i {
			p = ri.blocks[p].chain
		}
		ri.blocks[p].chain = b.chain
	}
	ri.leave(r, b.slot, d.id)
	d.resident--
	d.markDirty()
	d.memUsed -= b.desc.Bytes()
	b.next = ri.free
	ri.free = i
}

// evictFor frees space until size bytes fit, evicting least-recently-used
// unpinned blocks. Dirty blocks are written back to host (the cluster marks
// them host-resident). Returns an error if the request can never fit.
func (d *Device) evictFor(size int64) error {
	c := d.c
	if size > d.Capacity() {
		return fmt.Errorf("gpusim: %w: device %d: tensor of %d bytes exceeds capacity %d (used %d, free %d)",
			ErrOutOfMemory, d.id, size, d.Capacity(), d.memUsed, d.MemFree())
	}
	for d.memUsed+size > d.Capacity() {
		vi := d.oldestUnpinned()
		if vi == 0 {
			return fmt.Errorf("gpusim: %w: device %d cannot free %d bytes: all %d resident tensors pinned (capacity %d, used %d, free %d)",
				ErrOutOfMemory, d.id, size, d.resident, d.Capacity(), d.memUsed, d.MemFree())
		}
		victim := &c.index.blocks[vi]
		cost := c.cfg.EvictLatency
		d.advanceTransferQueue(cost)
		if c.observing() {
			c.emit(obs.EventEvict, d.id, victim.desc.ID, d.CopyClock()-cost, d.CopyClock(), victim.desc.Bytes(), 0)
		}
		if victim.dirty {
			// Dirty write-back occupies the node's shared host link.
			dur := float64(victim.desc.Bytes()) / c.d2hBandwidth()
			cost += c.hostLinkOccupy(d, dur)
			d.stats.D2HBytes += victim.desc.Bytes()
			c.d2hBytes += victim.desc.Bytes()
			c.hostCopy(victim.slot, &victim.desc, d.node)
			if c.observing() {
				c.emit(obs.EventD2H, d.id, victim.desc.ID, d.CopyClock()-dur, d.CopyClock(), victim.desc.Bytes(), 0)
			}
		}
		d.stats.EvictTime += cost
		d.stats.Evictions++
		c.evictions++
		d.drop(vi)
	}
	return nil
}

func (d *Device) oldestUnpinned() int32 {
	blocks := d.c.index.blocks
	for i := d.lruHead; i != 0; i = blocks[i].next {
		if !blocks[i].pinned {
			return i
		}
	}
	return 0
}

// advanceTransferQueue adds dur to the queue transfers run on: the copy
// engine when asynchronous, the compute queue otherwise.
func (d *Device) advanceTransferQueue(dur float64) {
	d.markDirty()
	if d.c.cfg.AsyncCopy {
		d.copyClock += dur
	} else {
		d.clock += dur
	}
}

// reset returns the device to time zero with an empty pool. The residency
// index — the device's blocks with it — and the dirty set are NOT touched:
// Cluster.Reset, the only caller, rewinds and marks them once for all.
func (d *Device) reset() {
	d.lruHead, d.lruTail, d.resident = 0, 0, 0
	d.clock = 0
	d.copyClock = 0
	d.memUsed = 0
	d.memPeak = 0
	d.stats = DeviceStats{}
	d.failed = false
	d.capOverride = 0
}
