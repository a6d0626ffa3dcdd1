package gpusim

import (
	"fmt"

	"micco/internal/tensor"
)

// block is a resident allocation on a device's memory pool. Blocks are
// linked intrusively into the device's LRU list and recycled through a
// per-device free list, so steady-state installs allocate nothing.
type block struct {
	desc   tensor.Desc
	dirty  bool // produced on-device and not yet written back to host
	pinned bool // in use by the op currently being scheduled; not evictable
	// prev/next chain the device's LRU order (front = least recently
	// used); next doubles as the free-list link for recycled blocks.
	prev, next *block
	// readyAt is when the block's data is usable: the completion time of
	// the copy that installed it (only ahead of the compute queue when
	// the copy engine is asynchronous).
	readyAt float64
}

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

// Add accumulates o into s (the exported form of the engine-internal add).
func (s *DeviceStats) Add(o DeviceStats) { s.add(o) }

// add accumulates o into s.
func (s *DeviceStats) add(o DeviceStats) {
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
	id  int
	cfg *Config
	// prof is the device's resolved hardware profile: its class's
	// DeviceProfile with zero fields replaced by the Config defaults.
	// Homogeneous clusters resolve every device to the Config values.
	prof DeviceProfile
	// node is the node the device belongs to (Config.NodeSize grouping).
	node      int
	clock     float64 // compute queue
	copyClock float64 // copy engine queue (used when cfg.AsyncCopy)
	memUsed   int64
	memPeak   int64 // high-water mark of memUsed over the run
	resident  map[uint64]*block
	// lruHead/lruTail bound the intrusive LRU list (head = least recently
	// used); free chains recycled blocks awaiting reuse.
	lruHead, lruTail *block
	free             *block
	stats            DeviceStats
	// index is the cluster's shared residency index; install and drop
	// keep its holder sets exact so they can never drift from resident.
	index *residencyIndex
	// dirty is the cluster's shared dirty-device set; every write to clock,
	// memUsed, capOverride or failed marks the device there.
	dirty *dirtySet
	// failed marks the device as removed by fault injection
	// (Cluster.FailDevice); operations issued to it return ErrDeviceLost.
	failed bool
	// capOverride, when positive, caps the memory pool below
	// Config.MemoryBytes (Cluster.SetMemoryCapacity).
	capOverride int64
}

func newDevice(id int, cfg *Config, index *residencyIndex, dirty *dirtySet) *Device {
	return &Device{
		id:       id,
		cfg:      cfg,
		prof:     cfg.profileOf(id),
		node:     cfg.NodeOf(id),
		resident: make(map[uint64]*block),
		index:    index,
		dirty:    dirty,
	}
}

// markDirty records that one of the device's scheduler-visible keys (clock,
// memUsed, capacity, failed) is about to change; see dirtySet.
func (d *Device) markDirty() { d.dirty.mark(d.id) }

// ID returns the device index within its cluster.
func (d *Device) ID() int { return d.id }

// Node returns the node the device belongs to.
func (d *Device) Node() int { return d.node }

// Profile returns the device's resolved hardware profile (its class's
// DeviceProfile with zero fields replaced by the Config defaults).
func (d *Device) Profile() DeviceProfile { return d.prof }

// Clock returns the device's compute-queue time in seconds.
func (d *Device) Clock() float64 { return d.clock }

// CopyClock returns the copy-engine queue time; it equals Clock() when the
// copy engine is synchronous (Config.AsyncCopy off).
func (d *Device) CopyClock() float64 {
	if d.cfg.AsyncCopy {
		return d.copyClock
	}
	return d.clock
}

// busyUntil is the later of the device's queues.
func (d *Device) busyUntil() float64 {
	if d.cfg.AsyncCopy && d.copyClock > d.clock {
		return d.copyClock
	}
	return d.clock
}

// MemUsed returns the bytes currently allocated on the device.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree returns the bytes still available on the device.
func (d *Device) MemFree() int64 { return d.capacity() - d.memUsed }

// capacity is the effective pool size: the fault-injected override when one
// is active, the profile's (or configured) size otherwise.
func (d *Device) capacity() int64 {
	if d.capOverride > 0 {
		return d.capOverride
	}
	return d.prof.MemoryBytes
}

// Capacity returns the device's effective memory-pool size in bytes; it is
// below the profile's MemoryBytes while a fault plan's mem-shrink is in
// effect.
func (d *Device) Capacity() int64 { return d.capacity() }

// Failed reports whether the device has been removed by fault injection.
func (d *Device) Failed() bool { return d.failed }

// MemPeak returns the high-water mark of allocated bytes over the run,
// the paper's per-device memory-pressure observable.
func (d *Device) MemPeak() int64 { return d.memPeak }

// Stats returns a copy of the device's counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// Holds reports whether tensor id is resident on the device.
func (d *Device) Holds(id uint64) bool {
	_, ok := d.resident[id]
	return ok
}

// ResidentCount returns the number of tensors resident on the device.
func (d *Device) ResidentCount() int { return len(d.resident) }

// lruPushBack appends b at the most-recently-used end.
func (d *Device) lruPushBack(b *block) {
	b.prev = d.lruTail
	b.next = nil
	if d.lruTail != nil {
		d.lruTail.next = b
	} else {
		d.lruHead = b
	}
	d.lruTail = b
}

// lruRemove unlinks b from the LRU list.
func (d *Device) lruRemove(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		d.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		d.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
}

// touch marks a resident tensor most-recently-used.
func (d *Device) touch(b *block) {
	if d.lruTail != b {
		d.lruRemove(b)
		d.lruPushBack(b)
	}
}

// install records a new resident block (most-recently-used position),
// reusing a recycled block when one is free. r is the tensor's residency
// record, which the caller has in hand or has just added.
func (d *Device) install(desc tensor.Desc, dirty bool, r *tensorRec) *block {
	b := d.free
	if b != nil {
		d.free = b.next
		*b = block{desc: desc, dirty: dirty}
	} else {
		b = &block{desc: desc, dirty: dirty}
	}
	d.lruPushBack(b)
	d.resident[desc.ID] = b
	r.hold(d.id)
	d.markDirty()
	d.memUsed += desc.Bytes()
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	return b
}

// drop removes a resident block without any timing cost (used by eviction
// and invalidation; callers account for cost) and recycles it onto the
// free list. The block must not be used after drop returns, nor r, the
// tensor's residency record, once the tensor's last copy has been dropped.
func (d *Device) drop(b *block, r *tensorRec) {
	d.lruRemove(b)
	delete(d.resident, b.desc.ID)
	if r.unhold(d.id) {
		d.index.release(b.desc.ID, r)
	}
	d.markDirty()
	d.memUsed -= b.desc.Bytes()
	b.next = d.free
	d.free = b
}

// evictFor frees space until size bytes fit, evicting least-recently-used
// unpinned blocks. Dirty blocks are written back to host (the cluster marks
// them host-resident). Returns an error if the request can never fit.
func (d *Device) evictFor(size int64, c *Cluster) error {
	if size > d.capacity() {
		return fmt.Errorf("gpusim: %w: device %d: tensor of %d bytes exceeds capacity %d (used %d, free %d)",
			ErrOutOfMemory, d.id, size, d.capacity(), d.memUsed, d.MemFree())
	}
	for d.memUsed+size > d.capacity() {
		victim := d.oldestUnpinned()
		if victim == nil {
			return fmt.Errorf("gpusim: %w: device %d cannot free %d bytes: all %d resident tensors pinned (capacity %d, used %d, free %d)",
				ErrOutOfMemory, d.id, size, len(d.resident), d.capacity(), d.memUsed, d.MemFree())
		}
		cost := d.prof.EvictLatency
		d.advanceTransferQueue(cost)
		c.trace(Event{Kind: EventEvict, Device: d.id, Tensor: victim.desc.ID,
			Start: d.CopyClock() - cost, End: d.CopyClock(), Bytes: victim.desc.Bytes()})
		r := c.index.recs[victim.desc.ID]
		if victim.dirty {
			// Dirty write-back occupies the node's shared host link.
			dur := float64(victim.desc.Bytes()) / c.d2hBandwidth(d)
			cost += c.hostLinkOccupy(d, dur)
			d.stats.D2HBytes += victim.desc.Bytes()
			c.d2hBytes += victim.desc.Bytes()
			c.hostCopy(r, victim.desc, d.node)
			c.trace(Event{Kind: EventD2H, Device: d.id, Tensor: victim.desc.ID,
				Start: d.CopyClock() - dur, End: d.CopyClock(), Bytes: victim.desc.Bytes()})
		}
		d.stats.EvictTime += cost
		d.stats.Evictions++
		c.evictions++
		d.drop(victim, r)
	}
	return nil
}

func (d *Device) oldestUnpinned() *block {
	for b := d.lruHead; b != nil; b = b.next {
		if !b.pinned {
			return b
		}
	}
	return nil
}

// advanceTransferQueue adds dur to the queue transfers run on: the copy
// engine when asynchronous, the compute queue otherwise.
func (d *Device) advanceTransferQueue(dur float64) {
	d.markDirty()
	if d.cfg.AsyncCopy {
		d.copyClock += dur
	} else {
		d.clock += dur
	}
}

// reset clears all state, returning the device to time zero with an empty
// pool. Maps keep their capacity and every block is recycled, so the next
// run's installs allocate nothing.
// The residency index and the dirty set are NOT touched here: reset is only
// reachable from Cluster.Reset, which resets the index and marks the whole
// cluster dirty once for all devices.
func (d *Device) reset() {
	if d.lruTail != nil {
		// The LRU list is already chained through next: splice it whole
		// onto the free list (install overwrites every field on reuse).
		d.lruTail.next = d.free
		d.free = d.lruHead
	}
	d.lruHead, d.lruTail = nil, nil
	clear(d.resident)
	d.clock = 0
	d.copyClock = 0
	d.memUsed = 0
	d.memPeak = 0
	d.stats = DeviceStats{}
	d.failed = false
	d.capOverride = 0
}
