package gpusim

import (
	"fmt"
	"sort"

	"micco/internal/tensor"
)

// BlockState is the serializable state of one resident block.
type BlockState struct {
	Desc    tensor.Desc
	Dirty   bool
	ReadyAt float64
}

// DeviceState is the serializable state of one device: clocks, counters,
// capacity override, failure flag, and the resident set in LRU order
// (least recently used first, so replaying installs reproduces the
// eviction order exactly).
type DeviceState struct {
	Clock     float64
	CopyClock float64
	MemPeak   int64
	Capacity  int64 // capOverride; 0 = configured capacity
	Failed    bool
	Stats     DeviceStats
	Resident  []BlockState
}

// HostState is one host-resident tensor and, on multi-node clusters, the
// nodes whose host partition holds the copy (nil on single-node clusters,
// where host memory is one pool).
type HostState struct {
	Desc  tensor.Desc
	Nodes []int
}

// Checkpoint is a full snapshot of cluster simulation state, sufficient to
// continue a run with bit-identical timing. Pinned flags are not captured:
// checkpoints are only taken at stage barriers, where no operation is in
// flight and nothing is pinned.
type Checkpoint struct {
	// LinkClocks and P2PClocks hold each node's host-link and P2P-fabric
	// availability times (one entry on single-node clusters).
	LinkClocks []float64
	P2PClocks  []float64
	// InterClock and InterBytes snapshot the inter-node interconnect.
	InterClock    float64
	InterBytes    int64
	LinkFactor    float64 // bwFactor; 0 = undegraded
	TransientLeft int
	// Host lists host-resident tensors with their node presence,
	// ID-sorted for deterministic iteration.
	Host    []HostState
	Devices []DeviceState
}

// Validate sanity-checks a checkpoint that arrived from outside the
// process (a decoded durable file): structural invariants only, the
// checks Restore's topology comparison cannot express. It cannot prove
// the snapshot came from a real run — CRC integrity upstream covers
// corruption — but it rejects decoded garbage before it reaches a
// cluster.
func (cp *Checkpoint) Validate() error {
	if cp == nil {
		return fmt.Errorf("gpusim: %w: checkpoint", ErrNilArgument)
	}
	if len(cp.Devices) == 0 {
		return fmt.Errorf("gpusim: checkpoint has no devices")
	}
	if len(cp.LinkClocks) != len(cp.P2PClocks) {
		return fmt.Errorf("gpusim: checkpoint link/p2p clock counts differ (%d vs %d)",
			len(cp.LinkClocks), len(cp.P2PClocks))
	}
	if cp.LinkFactor < 0 {
		return fmt.Errorf("gpusim: checkpoint link factor %v negative", cp.LinkFactor)
	}
	if cp.TransientLeft < 0 {
		return fmt.Errorf("gpusim: checkpoint transient budget %d negative", cp.TransientLeft)
	}
	for _, hs := range cp.Host {
		if !hs.Desc.Valid() {
			return fmt.Errorf("gpusim: checkpoint host tensor %v invalid", hs.Desc)
		}
		// The upper end needs a cluster to compare with: Restore checks it.
		for _, n := range hs.Nodes {
			if n < 0 {
				return fmt.Errorf("gpusim: %w: host tensor %d on node %d", ErrInvalidCheckpoint, hs.Desc.ID, n)
			}
		}
	}
	for i, ds := range cp.Devices {
		if ds.Clock < 0 || ds.CopyClock < 0 {
			return fmt.Errorf("gpusim: checkpoint device %d has negative clocks", i)
		}
		if ds.MemPeak < 0 || ds.Capacity < 0 {
			return fmt.Errorf("gpusim: checkpoint device %d has negative memory fields", i)
		}
		if ds.Failed && len(ds.Resident) > 0 {
			return fmt.Errorf("gpusim: %w: failed device %d holds %d tensors", ErrInvalidCheckpoint, i, len(ds.Resident))
		}
		seen := make(map[uint64]bool, len(ds.Resident))
		for _, bs := range ds.Resident {
			if !bs.Desc.Valid() {
				return fmt.Errorf("gpusim: checkpoint device %d resident tensor %v invalid", i, bs.Desc)
			}
			if seen[bs.Desc.ID] {
				return fmt.Errorf("gpusim: checkpoint device %d holds tensor %d twice", i, bs.Desc.ID)
			}
			seen[bs.Desc.ID] = true
		}
	}
	return nil
}

// Makespan returns the snapshot's simulated wall clock: the maximum
// device availability time, matching Cluster.Makespan at capture time.
func (cp *Checkpoint) Makespan() float64 {
	var m float64
	for _, ds := range cp.Devices {
		if ds.Clock > m {
			m = ds.Clock
		}
		if ds.CopyClock > m {
			m = ds.CopyClock
		}
	}
	return m
}

// ReviveDevices returns every failed device in the snapshot to service,
// mirroring Cluster.RestoreDevice: empty memory, clocks aligned to the
// snapshot makespan (the device rejoins at "now", not in the past).
// Supervisors use it to turn an ErrClusterLost checkpoint — every device
// down — back into a runnable one before resuming. Returns how many
// devices were revived.
func (cp *Checkpoint) ReviveDevices() int {
	m := cp.Makespan()
	n := 0
	for i := range cp.Devices {
		if !cp.Devices[i].Failed {
			continue
		}
		cp.Devices[i].Failed = false
		cp.Devices[i].Resident = nil
		cp.Devices[i].Clock = m
		cp.Devices[i].CopyClock = m
		n++
	}
	return n
}

// Checkpoint captures the cluster's complete simulation state. Intended at
// stage barriers (quiescent points with no pinned blocks); the snapshot
// shares nothing with the live cluster.
func (c *Cluster) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		LinkClocks:    append([]float64(nil), c.linkClocks...),
		P2PClocks:     append([]float64(nil), c.p2pClocks...),
		InterClock:    c.interClock,
		InterBytes:    c.interBytes,
		LinkFactor:    c.bwFactor,
		TransientLeft: c.transientLeft,
		Host:          make([]HostState, 0, len(c.index.recs)),
		Devices:       make([]DeviceState, len(c.devices)),
	}
	for s := range c.index.recs {
		r := &c.index.recs[s]
		if !r.onHost {
			continue
		}
		h := &c.index.hosts[s]
		hs := HostState{Desc: h.desc}
		if c.numNodes > 1 {
			hs.Nodes = h.nodes.AppendTo(nil)
		}
		cp.Host = append(cp.Host, hs)
	}
	sort.Slice(cp.Host, func(i, j int) bool { return cp.Host[i].Desc.ID < cp.Host[j].Desc.ID })
	for i, d := range c.devices {
		ds := DeviceState{
			Clock:     d.clock,
			CopyClock: d.copyClock,
			MemPeak:   d.memPeak,
			Capacity:  d.capOverride,
			Failed:    d.failed,
			Stats:     d.stats,
			Resident:  make([]BlockState, 0, d.resident),
		}
		for bi := d.lruHead; bi != 0; bi = c.index.blocks[bi].next {
			b := &c.index.blocks[bi]
			ds.Resident = append(ds.Resident, BlockState{Desc: b.desc, Dirty: b.dirty, ReadyAt: b.readyAt})
		}
		cp.Devices[i] = ds
	}
	return cp
}

// Restore replaces the cluster's simulation state with cp (taken from a
// cluster of the same topology). The restored cluster continues with
// bit-identical timing to the one that was checkpointed. A checkpoint that
// does not fit the cluster is refused before anything is changed.
func (c *Cluster) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("gpusim: %w: checkpoint", ErrNilArgument)
	}
	if len(cp.Devices) != len(c.devices) {
		return fmt.Errorf("gpusim: checkpoint has %d devices, cluster has %d", len(cp.Devices), len(c.devices))
	}
	if len(cp.LinkClocks) != c.numNodes || len(cp.P2PClocks) != c.numNodes {
		return fmt.Errorf("gpusim: checkpoint has %d/%d node link clocks, cluster has %d nodes",
			len(cp.LinkClocks), len(cp.P2PClocks), c.numNodes)
	}
	// No run leaves a failed device holding tensors (FailDevice drops them,
	// ReviveDevices clears Resident): restoring one would name a dead holder.
	for i, ds := range cp.Devices {
		if ds.Failed && len(ds.Resident) > 0 {
			return fmt.Errorf("gpusim: %w: failed device %d holds %d tensors", ErrInvalidCheckpoint, i, len(ds.Resident))
		}
	}
	// A node set grows to hold whatever index it is given, so one from
	// outside the cluster must not reach it.
	for _, hs := range cp.Host {
		for _, n := range hs.Nodes {
			if n < 0 || n >= c.numNodes {
				return fmt.Errorf("gpusim: %w: host tensor %d on node %d, cluster has %d nodes",
					ErrInvalidCheckpoint, hs.Desc.ID, n, c.numNodes)
			}
		}
	}
	c.Reset()
	copy(c.linkClocks, cp.LinkClocks)
	copy(c.p2pClocks, cp.P2PClocks)
	c.interClock = cp.InterClock
	c.interBytes = cp.InterBytes
	c.bwFactor = cp.LinkFactor
	c.transientLeft = cp.TransientLeft
	for _, hs := range cp.Host {
		slot := c.slot(hs.Desc.ID)
		r, h := &c.index.recs[slot], &c.index.hosts[slot]
		r.onHost, h.desc, h.nodes = true, hs.Desc, DevSet{}
		if c.numNodes > 1 {
			for _, n := range hs.Nodes {
				c.index.hostOn(h, slot, n)
			}
		}
	}
	for i, ds := range cp.Devices {
		d := c.devices[i]
		// Install in checkpoint (LRU) order so the rebuilt list evicts in
		// the same order the original would have; install also rebuilds
		// the residency index and memUsed as a side effect.
		for j := range ds.Resident {
			bs := &ds.Resident[j]
			bi := d.install(&bs.Desc, bs.Dirty, c.slot(bs.Desc.ID))
			c.index.blocks[bi].readyAt = bs.ReadyAt
		}
		// Overwrite what install perturbed, then the rest of the state.
		// (Reset above left the whole cluster marked dirty, which covers
		// these direct key writes.)
		d.clock = ds.Clock
		d.copyClock = ds.CopyClock
		d.memPeak = ds.MemPeak
		d.capOverride = ds.Capacity
		d.failed = ds.Failed
		d.stats = ds.Stats
		c.moveBytes += ds.Stats.H2DBytes + ds.Stats.P2PBytes
		c.d2hBytes += ds.Stats.D2HBytes
		c.evictions += ds.Stats.Evictions
	}
	return nil
}
