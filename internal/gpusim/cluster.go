package gpusim

import (
	"fmt"

	"micco/internal/obs"
	"micco/internal/tensor"
)

// Cluster is a simulated multi-GPU cluster plus its host(s). Hosts are
// assumed to have unbounded memory; input tensors are registered
// host-resident before simulation, and dirty evictions write outputs back
// to the host. With Config.NodeSize set, consecutive devices group into
// nodes, each with its own host link and P2P fabric, joined by a shared
// inter-node interconnect.
type Cluster struct {
	cfg     Config
	devices []*Device
	// linkClocks[n] is node n's host-link (PCIe fabric) availability time.
	// Every H2D and D2H transfer from node n's devices serializes on it: a
	// transfer starts at max(device clock, link clock) and advances both.
	// This models the single-CPU testbed of the paper, where aggregate
	// host traffic is the scaling bottleneck (its Fig. 9 shows only 1.65x
	// throughput from 1 to 8 GPUs). P2P copies bypass the host link.
	linkClocks []float64
	// p2pClocks[n] is node n's inter-GPU fabric availability time;
	// intra-node P2P copies (Config.PeerFetch) serialize on it the same
	// way host traffic serializes on the host link.
	p2pClocks []float64
	// interClock is the inter-node interconnect availability time: every
	// cross-node transfer — peer copies between nodes, and host-copy
	// shipping between host partitions — serializes on this one fabric.
	interClock float64
	// interBytes counts total bytes moved over the inter-node fabric.
	interBytes int64
	numNodes   int
	// moveBytes (H2D+P2P), d2hBytes and evictions are the cluster-wide sums
	// of the device counters of those names, kept as the devices' are
	// bumped so MoveStats reads three words on any cluster width.
	moveBytes, d2hBytes, evictions int64
	// tracing/traceEvents implement optional event recording (StartTrace).
	// Only the cluster holds the buffer until StopTrace hands it over, so Reset
	// truncates it in place; traceCap is the last finished trace's length.
	tracing     bool
	traceEvents []obs.Event
	traceCap    int
	// sink, when non-nil, feeds every simulated event into an attached
	// metrics registry (SetObserver), in batches. Independent of tracing;
	// survives Reset. scratch is where an event is written when the sink is
	// its only reader (see put).
	sink    *obsSink
	scratch obs.Event
	// index holds the one record per tensor — holder set, copy chain, host
	// copy, host nodes — that every residency question is answered from, and
	// the blocks of every device, all by slot. ids names each slot's tensor
	// (see BindTensors) and slots is its inverse, which only the ID-keyed
	// methods read: built by the first of them after a bind (slotsBuilt),
	// then kept up to date, so a run that goes by slots never builds it.
	index      *residencyIndex
	ids        []uint64
	slots      map[uint64]int32
	slotsBuilt bool
	// dirty collects the devices whose scheduler-visible keys changed
	// since the last DrainDirty (see dirtySet).
	dirty *dirtySet
	// bwFactor scales all transfer bandwidths under fault-injected link
	// degradation; zero means no degradation (factor 1).
	bwFactor float64
	// transientLeft is how many injected transient transfer failures
	// remain to be consumed by operand fetches.
	transientLeft int
}

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nn := cfg.NumNodes()
	c := &Cluster{
		cfg:        cfg,
		index:      newResidencyIndex(cfg.NumDevices, nn),
		dirty:      newDirtySet(cfg.NumDevices),
		linkClocks: make([]float64, nn),
		p2pClocks:  make([]float64, nn),
		numNodes:   nn,
	}
	for i := 0; i < cfg.NumDevices; i++ {
		c.devices = append(c.devices, newDevice(i, c))
	}
	return c, nil
}

// Config returns the cluster's hardware configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumDevices returns the device count.
func (c *Cluster) NumDevices() int { return len(c.devices) }

// NumNodes returns the node count (1 unless Config.NodeSize groups the
// devices into several nodes).
func (c *Cluster) NumNodes() int { return c.numNodes }

// NodeOf returns the node device dev belongs to.
func (c *Cluster) NodeOf(dev int) int { return c.cfg.NodeOf(dev) }

// InterNodeBytes returns total bytes moved over the inter-node
// interconnect so far (zero on single-node clusters).
func (c *Cluster) InterNodeBytes() int64 { return c.interBytes }

// Device returns device i.
func (c *Cluster) Device(i int) *Device { return c.devices[i] }

// RegisterHostTensor marks a tensor as available in host memory (an input
// produced upstream, e.g. a perambulator loaded from disk). On multi-node
// clusters the copy lands in node 0's host partition — the gateway node
// where upstream I/O arrives — and other nodes' first use pays one
// inter-node shipment.
func (c *Cluster) RegisterHostTensor(d tensor.Desc) { c.hostCopy(c.slot(d.ID), &d, 0) }

// RegisterHostAt is RegisterHostTensor for the tensor in slot (see
// BindTensors), which d describes.
func (c *Cluster) RegisterHostAt(slot int, d tensor.Desc) { c.hostCopy(int32(slot), &d, 0) }

// HostHolds reports whether any host partition has a copy of tensor id.
func (c *Cluster) HostHolds(id uint64) bool {
	s, ok := c.slotTable()[id]
	return ok && c.index.recs[s].onHost
}

// HostHoldsAt is HostHolds for the tensor in slot (see BindTensors).
func (c *Cluster) HostHoldsAt(slot int) bool { return c.index.recs[slot].onHost }

// hostCopy records a host copy of desc, slot's tensor, in node n's
// partition. A copy that appears starts on no node.
func (c *Cluster) hostCopy(slot int32, desc *tensor.Desc, n int) {
	r, h := &c.index.recs[slot], &c.index.hosts[slot]
	if !r.onHost {
		r.onHost, h.nodes = true, DevSet{}
	}
	h.desc = *desc
	if c.numNodes > 1 {
		c.index.hostOn(h, slot, n)
	}
}

// discardCopies drops every block on the copy chain of slot's tensor: only
// its holders are visited.
func (c *Cluster) discardCopies(slot int32) {
	r := &c.index.recs[slot]
	for r.head != 0 {
		c.devices[c.index.blocks[r.head].dev].drop(r.head)
	}
}

// EnsureResident makes tensor desc resident on device dev, advancing the
// device's transfer queue by the cost incurred: zero for a reuse hit, else
// allocation (with any evictions) plus a P2P copy if a peer holds it,
// otherwise an H2D copy from the host.
func (c *Cluster) EnsureResident(dev int, desc tensor.Desc) error {
	d, err := c.liveDevice(dev, "staging", desc.ID)
	if err == nil {
		_, err = c.ensureResident(d, &desc, c.slot(desc.ID), false)
	}
	return err
}

// liveDevice resolves dev for an operation on tensor id, refusing a lost one.
func (c *Cluster) liveDevice(dev int, op string, id uint64) (*Device, error) {
	d, err := c.device(dev)
	if err == nil && d.failed {
		err = fmt.Errorf("gpusim: %w: device %d (%s tensor %d)", ErrDeviceLost, dev, op, id)
	}
	return d, err
}

// ensureResident is EnsureResident on a resolved device and slot, returning
// the index of the tensor's block there (readyAt is when its data is usable),
// left pinned when pin is set so a subsequent allocation cannot evict it.
func (c *Cluster) ensureResident(d *Device, desc *tensor.Desc, slot int32, pin bool) (int32, error) {
	if i := c.index.find(slot, d.id); i != 0 {
		d.touch(i)
		if pin {
			c.index.blocks[i].pinned = true
		}
		d.stats.ReuseHits++
		return i, nil
	}
	// Injected transient failures strike cold fetches only (a reuse hit
	// moves no data). The attempt itself charges nothing; the engine's
	// retry policy charges backoff to simulated time.
	if c.transientLeft > 0 {
		c.transientLeft--
		return 0, fmt.Errorf("gpusim: %w: device %d fetching tensor %d (%d bytes)",
			ErrTransientTransfer, d.id, desc.ID, desc.Bytes())
	}
	// Locate a source before spending anything. Peer sourcing is only used
	// when the config enables it; the default data path stages through the
	// host. A same-node peer is preferred (xGMI-class fabric); failing that,
	// the lowest-numbered cross-node holder serves over the interconnect.
	r := &c.index.recs[slot]
	if r.head == 0 && !r.onHost {
		return 0, fmt.Errorf("gpusim: %w: tensor %d (%d bytes) resident on no device and absent from host (device %d requesting)",
			ErrTensorUnavailable, desc.ID, desc.Bytes(), d.id)
	}
	var peer *Device
	if c.cfg.PeerFetch {
		var cross *Device
		holders := c.index.holders(r, slot)
		for it := holders.First(); it >= 0; it = holders.NextFrom(it + 1) {
			if it == d.id {
				continue
			}
			p := c.devices[it]
			if p.node == d.node {
				peer = p
				break
			}
			if cross == nil {
				cross = p
			}
		}
		if peer == nil {
			peer = cross
		}
	}
	if peer == nil && !r.onHost {
		// A tensor without a host copy has holders. Peer copies exist but
		// peer fetch is disabled: stage through the host by paying one D2H
		// write-back first.
		src := c.devices[c.index.holders(r, slot).First()]
		dur := float64(desc.Bytes()) / c.d2hBandwidth()
		src.stats.TransferTime += c.hostLinkOccupy(src, dur)
		src.stats.D2HBytes += desc.Bytes()
		c.d2hBytes += desc.Bytes()
		if c.observing() {
			c.emit(obs.EventD2H, src.id, desc.ID, src.CopyClock()-dur, src.CopyClock(), desc.Bytes(), 0)
		}
		c.hostCopy(slot, desc, src.node)
	}
	if peer == nil && c.numNodes > 1 && !c.index.hosts[slot].nodes.Has(d.node) {
		// The host copy lives in another node's partition: ship it over
		// the inter-node interconnect into this node's partition first,
		// then fetch locally. The copy stays cached node-side, so repeat
		// misses on this node pay only the local H2D.
		c.interTransfer(d, desc)
		c.index.hostOn(&c.index.hosts[slot], slot, d.node)
	}
	if err := c.alloc(d, desc); err != nil {
		return 0, err
	}
	if peer != nil {
		if peer.node == d.node {
			// Intra-node P2P copies run on the node's inter-GPU fabric,
			// shared by all of its pairs.
			c.fabricTransfer(d, desc, obs.EventP2P, float64(desc.Bytes())/c.p2pBandwidth(), &c.p2pClocks[d.node])
		} else {
			// Cross-node peer copy: serialized on the inter-node fabric,
			// charged at its bandwidth plus fixed latency.
			c.interTransfer(d, desc)
		}
		d.stats.P2PBytes += desc.Bytes()
		c.moveBytes += desc.Bytes()
	} else {
		dur := float64(desc.Bytes()) / c.h2dBandwidth()
		d.stats.TransferTime += c.hostLinkOccupy(d, dur)
		d.stats.H2DBytes += desc.Bytes()
		c.moveBytes += desc.Bytes()
		if c.observing() {
			c.emit(obs.EventH2D, d.id, desc.ID, d.CopyClock()-dur, d.CopyClock(), desc.Bytes(), 0)
		}
	}
	d.stats.ColdMisses++
	i := d.install(desc, false, slot)
	b := &c.index.blocks[i]
	b.pinned = pin
	b.readyAt = d.CopyClock()
	return i, nil
}

// interTransfer charges one inter-node shipment of desc toward device d's
// node: fixed interconnect latency plus bytes at the (degradable)
// inter-node bandwidth, on the single shared inter-node fabric.
func (c *Cluster) interTransfer(d *Device, desc *tensor.Desc) {
	c.fabricTransfer(d, desc, obs.EventInter, c.cfg.InterNodeLatency+float64(desc.Bytes())/c.interBandwidth(), &c.interClock)
	c.interBytes += desc.Bytes()
}

// fabricTransfer charges a copy of desc to device d that takes dur seconds
// and serializes on a shared fabric, whose availability time is *clock: the
// copy starts when both d's transfer queue and the fabric are free.
func (c *Cluster) fabricTransfer(d *Device, desc *tensor.Desc, kind obs.EventKind, dur float64, clock *float64) {
	queue := d.CopyClock()
	start := max(queue, *clock)
	end := start + dur
	*clock = end
	d.advanceTransferQueue(end - queue)
	d.stats.TransferTime += end - queue
	if s := c.sink; s != nil {
		busy, stall := &s.p2pBusy, &s.p2pStall
		if kind == obs.EventInter {
			busy, stall = &s.interBusy, &s.interStall
		}
		busy.v += dur
		stall.v += start - queue
	}
	if c.observing() {
		c.emit(kind, d.id, desc.ID, start, end, desc.Bytes(), 0)
	}
}

// hostLinkOccupy reserves device d's node's host link for dur seconds on
// behalf of d's transfer queue: the transfer begins when both are free and
// advances both to its completion. It returns the elapsed queue time,
// stall included, which callers charge to the device's TransferTime.
func (c *Cluster) hostLinkOccupy(d *Device, dur float64) float64 {
	d.markDirty()
	queue := d.CopyClock()
	start := max(queue, c.linkClocks[d.node])
	end := start + dur
	if c.cfg.AsyncCopy {
		d.copyClock = end
	} else {
		d.clock = end
	}
	c.linkClocks[d.node] = end
	if c.sink != nil {
		c.sink.hostBusy.v += dur
		c.sink.hostStall.v += start - queue
	}
	return end - queue
}

// alloc charges allocation latency (on the transfer queue: it is part of
// the staging path) and evicts LRU blocks until desc fits.
func (c *Cluster) alloc(d *Device, desc *tensor.Desc) error {
	if err := d.evictFor(desc.Bytes()); err != nil {
		return fmt.Errorf("allocating tensor %d: %w", desc.ID, err)
	}
	d.advanceTransferQueue(c.cfg.AllocLatency)
	d.stats.AllocTime += c.cfg.AllocLatency
	return nil
}

// ExecContraction simulates one hadron contraction of a with b on device
// dev, producing out (which becomes resident and dirty). Both inputs are
// made resident first. Returns the FLOPs executed.
func (c *Cluster) ExecContraction(dev int, a, b, out tensor.Desc) (int64, error) {
	return c.ExecContractionAt(dev, &a, &b, &out, int(c.slot(a.ID)), int(c.slot(b.ID)), int(c.slot(out.ID)))
}

// ExecContractionAt is ExecContraction with the three tensors' slots (see
// BindTensors) in hand: no tensor is looked up by ID.
func (c *Cluster) ExecContractionAt(dev int, a, b, out *tensor.Desc, slotA, slotB, slotOut int) (int64, error) {
	d, err := c.liveDevice(dev, "contraction for", out.ID)
	if err != nil {
		return 0, err
	}
	flops, err := tensor.ContractFLOPs(*a, *b)
	if err != nil {
		return 0, err
	}
	// Blocks are held by index: an install below may move the slab.
	ia, err := c.ensureResident(d, a, int32(slotA), true)
	if err != nil {
		return 0, err
	}
	ib, err := c.ensureResident(d, b, int32(slotB), true)
	if err != nil {
		c.index.blocks[ia].pinned = false
		return 0, err
	}
	// Output allocation may evict, but never the pinned inputs.
	var outReady float64
	if io := c.index.find(int32(slotOut), d.id); io != 0 {
		// Re-execution into an existing buffer (e.g. accumulation).
		d.touch(io)
		ob := &c.index.blocks[io]
		ob.dirty = true
		outReady = ob.readyAt
	} else {
		if err := c.alloc(d, out); err != nil {
			c.index.blocks[ia].pinned, c.index.blocks[ib].pinned = false, false
			return 0, err
		}
		io = d.install(out, true, int32(slotOut))
		outReady = d.CopyClock()
		c.index.blocks[io].readyAt = outReady
	}
	ba, bb := &c.index.blocks[ia], &c.index.blocks[ib]
	if c.cfg.AsyncCopy {
		// The kernel waits for its operands' copies, then runs on the
		// compute queue, overlapping with unrelated transfers.
		d.clock = max(d.clock, ba.readyAt, bb.readyAt, outReady)
	}
	kt := c.cfg.KernelLaunch + float64(flops)/c.cfg.FLOPS
	d.markDirty()
	d.clock += kt
	d.stats.KernelTime += kt
	d.stats.Kernels++
	d.stats.FLOPs += flops
	if c.observing() {
		c.emit(obs.EventKernel, d.id, out.ID, d.clock-kt, d.clock, 0, flops)
	}
	// Pinned blocks cannot have been dropped since ensureResident found them.
	ba.pinned, bb.pinned = false, false
	return flops, nil
}

// Discard drops tensor id from every device without write-back and forgets
// any host copy. Used when an intermediate's last consumer has run.
func (c *Cluster) Discard(id uint64) {
	if s, ok := c.slotTable()[id]; ok {
		c.DiscardAt(int(s))
	}
}

// DiscardAt is Discard for the tensor in slot (see BindTensors).
func (c *Cluster) DiscardAt(slot int) {
	c.discardCopies(int32(slot))
	c.index.recs[slot].onHost = false
}

// Barrier synchronizes all device queues to the maximum, modeling the
// stage boundary between dependency-partitioned vectors.
func (c *Cluster) Barrier() {
	m := c.Makespan()
	c.dirty.markAll()
	for _, d := range c.devices {
		d.clock = m
		d.copyClock = m
	}
}

// Makespan returns the latest queue time across all devices in seconds.
func (c *Cluster) Makespan() float64 {
	var m float64
	for _, d := range c.devices {
		if t := d.busyUntil(); t > m {
			m = t
		}
	}
	return m
}

// TotalStats sums the per-device counters.
func (c *Cluster) TotalStats() DeviceStats {
	var s DeviceStats
	for _, d := range c.devices {
		s.Add(d.stats)
	}
	return s
}

// MoveStats returns just the movement counters the placement decision
// path charges per pair — H2D+P2P bytes, D2H bytes, evictions, each summed
// over all devices — from the cluster's running totals, so the engine's
// before/after delta costs the same on 8 devices and on 4096.
func (c *Cluster) MoveStats() (moveBytes, d2hBytes, evictions int64) {
	return c.moveBytes, c.d2hBytes, c.evictions
}

// GFLOPS returns achieved throughput: total kernel FLOPs divided by the
// makespan, in GFLOP/s. Zero if nothing ran.
func (c *Cluster) GFLOPS() float64 {
	m := c.Makespan()
	if m == 0 {
		return 0
	}
	return float64(c.TotalStats().FLOPs) / m / 1e9
}

// Reset returns every device to time zero with empty pools, frees the
// links, and clears the host registry. The tensor numbering stays (see
// BindTensors), and the residency index keeps its arrays, so back-to-back
// runs on one cluster settle into a steady state where the simulator
// allocates nothing. A trace being recorded is emptied in place; an observer
// publishes first.
func (c *Cluster) Reset() {
	c.FlushObserver() // while the device high-water marks it reads still stand
	for _, d := range c.devices {
		d.reset()
	}
	// Devices skip per-tensor index updates during reset: clearing the
	// records and rewinding the slab replaces a drop per resident block.
	// The host records go unread until hostCopy resets them.
	clear(c.index.recs)
	c.index.blocks, c.index.free = c.index.blocks[:1], 0
	c.dirty.markAll()
	clear(c.linkClocks)
	clear(c.p2pClocks)
	c.interClock, c.interBytes = 0, 0
	c.moveBytes, c.d2hBytes, c.evictions = 0, 0, 0
	c.traceEvents = c.traceEvents[:0]
	c.bwFactor, c.transientLeft = 0, 0
}

func (c *Cluster) device(i int) (*Device, error) {
	if i < 0 || i >= len(c.devices) {
		return nil, fmt.Errorf("gpusim: %w: device %d out of range [0,%d)", ErrInvalidDevice, i, len(c.devices))
	}
	return c.devices[i], nil
}

// ChargeExternalTransfer advances device dev's transfer queue by seconds,
// accounting it as transfer time. Multi-cluster compositions use this to
// charge network time that this cluster's model knows nothing about.
func (c *Cluster) ChargeExternalTransfer(dev int, seconds float64) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	if seconds < 0 {
		return fmt.Errorf("gpusim: negative external transfer %v", seconds)
	}
	d.advanceTransferQueue(seconds)
	d.stats.TransferTime += seconds
	return nil
}

// BarrierAt raises every device queue (and the host links) to at least t,
// implementing barriers that span multiple clusters.
func (c *Cluster) BarrierAt(t float64) {
	c.dirty.markAll()
	for _, d := range c.devices {
		if d.clock < t {
			d.clock = t
		}
		if d.copyClock < t {
			d.copyClock = t
		}
	}
	for n := range c.linkClocks {
		if c.linkClocks[n] < t {
			c.linkClocks[n] = t
		}
	}
}
