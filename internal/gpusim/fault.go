package gpusim

import (
	"fmt"
	"math"

	"micco/internal/obs"
)

// This file is the simulator's fault surface: devices can be lost and
// restored, the transfer links can be degraded, memory pools can shrink
// mid-run, and operand fetches can be made to fail transiently. All
// mutations route residency changes through Device.install/drop, so the
// cluster's residency index stays exact across every fault.

// FailDevice removes device dev from service: every resident block is
// dropped (through the install/drop index, so HoldersMask can never show a
// dead holder), dirty data that was never written back is lost, the
// device's clocks freeze at their current values, and any subsequent
// EnsureResident/ExecContraction on it fails with ErrDeviceLost. Failing
// an already-failed device is a no-op.
func (c *Cluster) FailDevice(dev int) error {
	d, err := c.device(dev)
	if err != nil || d.failed {
		return err
	}
	for d.lruHead != 0 {
		d.drop(d.lruHead)
	}
	d.markDirty()
	d.failed = true
	c.traceFault(dev, obs.FaultDeviceLoss, 0)
	return nil
}

// traceFault records an injected fault at the current makespan.
func (c *Cluster) traceFault(dev int, code obs.FaultCode, arg uint64) {
	if c.observing() {
		t := c.Makespan()
		e := c.put(obs.EventFault, dev, 0, t, t, int64(arg), 0)
		e.Fault = code
		if c.sink != nil {
			c.sink.observe(e)
		}
	}
}

// RestoreDevice returns a failed device to service with an empty memory
// pool, its clocks aligned to the current makespan (it rejoins at "now",
// not in the past). Restoring a live device is a no-op.
func (c *Cluster) RestoreDevice(dev int) error {
	d, err := c.device(dev)
	if err != nil || !d.failed {
		return err
	}
	d.markDirty()
	d.failed = false
	d.clock = c.Makespan()
	d.copyClock = d.clock
	c.traceFault(dev, obs.FaultDeviceRestore, 0)
	return nil
}

// DeviceFailed reports whether device dev has been removed by FailDevice.
func (c *Cluster) DeviceFailed(dev int) bool {
	return dev >= 0 && dev < len(c.devices) && c.devices[dev].failed
}

// FailedMask returns the set of failed devices.
func (c *Cluster) FailedMask() DevSet { return c.devicesWhere(true) }

// AliveMask returns the set of in-service devices.
func (c *Cluster) AliveMask() DevSet { return c.devicesWhere(false) }

func (c *Cluster) devicesWhere(failed bool) DevSet {
	var m DevSet
	for _, d := range c.devices {
		if d.failed == failed {
			m = m.with(d.id, c.index.restWords)
		}
	}
	return m
}

// DegradeLink scales every transfer bandwidth (H2D, D2H, P2P, inter-node)
// by factor: 0.25 quarters throughput, 1 restores full speed. Transfers in
// flight are unaffected; the factor applies to durations charged from now
// on.
func (c *Cluster) DegradeLink(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("gpusim: link degrade factor %v must be positive", factor)
	}
	c.bwFactor = factor
	c.traceFault(-1, obs.FaultLinkDegrade, math.Float64bits(factor))
	return nil
}

// LinkFactor returns the current bandwidth multiplier (1 = full speed).
func (c *Cluster) LinkFactor() float64 {
	if c.bwFactor == 0 {
		return 1
	}
	return c.bwFactor
}

// Effective bandwidths — the Config rate under the current link
// degradation factor.
func (c *Cluster) h2dBandwidth() float64   { return c.cfg.H2DBandwidth * c.LinkFactor() }
func (c *Cluster) d2hBandwidth() float64   { return c.cfg.D2HBandwidth * c.LinkFactor() }
func (c *Cluster) p2pBandwidth() float64   { return c.cfg.P2PBandwidth * c.LinkFactor() }
func (c *Cluster) interBandwidth() float64 { return c.cfg.InterNodeBandwidth * c.LinkFactor() }

// SetMemoryCapacity caps device dev's memory pool at capacity bytes
// (restoring the configured MemoryBytes when capacity equals it). If the device
// currently holds more than the new capacity, LRU blocks are evicted —
// dirty ones written back to host — until the pool fits, charging the
// usual eviction and write-back costs to the device's queues.
func (c *Cluster) SetMemoryCapacity(dev int, capacity int64) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	if capacity <= 0 {
		return fmt.Errorf("gpusim: capacity %d for device %d must be positive", capacity, dev)
	}
	d.markDirty()
	d.capOverride = capacity
	c.traceFault(dev, obs.FaultMemCapacity, uint64(capacity))
	if d.memUsed > capacity {
		// evictFor(0) loops until memUsed fits the (new) capacity.
		if err := d.evictFor(0); err != nil {
			return fmt.Errorf("gpusim: shrinking device %d to %d bytes: %w", dev, capacity, err)
		}
	}
	return nil
}

// InjectTransientFailures makes the next n operand fetches (EnsureResident
// cold misses, from any device) fail with ErrTransientTransfer. Injected
// failures accumulate; each fetch attempt consumes one.
func (c *Cluster) InjectTransientFailures(n int) {
	if n <= 0 {
		return
	}
	c.transientLeft += n
	c.traceFault(-1, obs.FaultTransientTransfer, uint64(n))
}

// TransientFailuresLeft returns how many injected transfer failures have
// not yet been consumed.
func (c *Cluster) TransientFailuresLeft() int { return c.transientLeft }

// DiscardDeviceCopies drops tensor id from every device without touching
// any host copy. The engine uses it instead of Discard while a fault plan
// is active: the host copy (when one exists) remains the recovery source
// should a device loss destroy downstream results.
func (c *Cluster) DiscardDeviceCopies(id uint64) {
	if s, ok := c.slotTable()[id]; ok {
		c.discardCopies(s)
	}
}

// DiscardDeviceCopiesAt is DiscardDeviceCopies for the tensor in slot (see
// BindTensors).
func (c *Cluster) DiscardDeviceCopiesAt(slot int) { c.discardCopies(int32(slot)) }
