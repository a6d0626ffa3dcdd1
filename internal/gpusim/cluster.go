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
	// links holds every shared copy channel (linkOf). A node's host link
	// carries all of its devices' H2D and D2H traffic, modeling the paper's
	// single-CPU testbed, where aggregate host traffic is the scaling
	// bottleneck (its Fig. 9 shows only 1.65x throughput from 1 to 8 GPUs).
	links []link
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

// The channel kinds, each with its own busy/stall series pair (linkSeries).
const (
	hostChannel = iota
	p2pChannel
	interChannel
)

// link is one shared copy channel — a node's host link (PCIe fabric) or
// inter-GPU fabric, or the inter-node interconnect — on which copies
// serialize in the order they are booked.
type link struct {
	free float64 // when the channel is next free
	ch   int     // the channel kind
}

// occupy books the link for dur seconds for a copy queue free at queue.
func (l *link) occupy(queue, dur float64) (start, end float64) {
	start = max(queue, l.free)
	l.free = start + dur
	return start, l.free
}

// linkOf returns node n's link of kind ch; the interconnect is node 0's.
func (c *Cluster) linkOf(ch, n int) *link { return &c.links[ch*c.numNodes+n] }

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nn := cfg.NumNodes()
	c := &Cluster{
		cfg:      cfg,
		index:    newResidencyIndex(),
		dirty:    newDirtySet(cfg.NumDevices),
		links:    make([]link, interChannel*nn+1),
		numNodes: nn,
	}
	for i := range c.links {
		c.links[i].ch = i / nn
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
// clusters the copy lands in node 0's host partition, and other nodes'
// first use pays one inter-node shipment. sched.Run registers by slot
// (RegisterHostAt); the ID-keyed form serves callers that drive the
// cluster without a run, such as the benchmark's replay.
func (c *Cluster) RegisterHostTensor(d tensor.Desc) { c.hostCopy(c.slot(d.ID), 0) }

// RegisterHostAt is RegisterHostTensor for the tensor in slot (see
// BindTensors).
func (c *Cluster) RegisterHostAt(slot int) { c.hostCopy(int32(slot), 0) }

// HostHolds reports whether any host partition has a copy of tensor id.
func (c *Cluster) HostHolds(id uint64) bool {
	s, ok := c.slotTable()[id]
	return ok && c.index.recs[s].onHost
}

// HostHoldsAt is HostHolds for the tensor in slot (see BindTensors).
func (c *Cluster) HostHoldsAt(slot int) bool { return c.index.recs[slot].onHost }

// hostCopy records a host copy of slot's tensor in node n's partition. A
// copy that appears starts on no node.
func (c *Cluster) hostCopy(slot int32, n int) {
	r, h := &c.index.recs[slot], &c.index.hosts[slot]
	if !r.onHost {
		r.onHost, h.nodes, h.far = true, 0, runRef{}
	}
	if c.numNodes > 1 {
		c.index.hostOn(h, n)
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
	size := desc.Bytes()
	// Injected transient failures strike cold fetches only (a reuse hit
	// moves no data). The attempt itself charges nothing; the engine's
	// retry policy charges backoff to simulated time.
	if c.transientLeft > 0 {
		c.transientLeft--
		return 0, fmt.Errorf("gpusim: %w: device %d fetching tensor %d (%d bytes)",
			ErrTransientTransfer, d.id, desc.ID, size)
	}
	// Locate a source before spending anything. Peer sourcing is only used
	// when the config enables it; the default data path stages through the
	// host. A same-node peer is preferred (xGMI-class fabric); failing that,
	// the lowest-numbered cross-node holder serves over the interconnect.
	r := &c.index.recs[slot]
	if r.head == 0 && !r.onHost {
		return 0, fmt.Errorf("gpusim: %w: tensor %d (%d bytes) resident on no device and absent from host (device %d requesting)",
			ErrTensorUnavailable, desc.ID, size, d.id)
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
		src.stats.TransferTime += c.writeBack(src, slot, size)
	}
	if h := &c.index.hosts[slot]; peer == nil && c.numNodes > 1 && !c.index.hostNodes(h).Has(d.node) {
		// The host copy lives in another node's partition: ship it over
		// the inter-node interconnect into this node's partition first,
		// then fetch locally. The copy stays cached node-side, so repeat
		// misses on this node pay only the local H2D.
		c.interTransfer(d, desc.ID, size)
		c.index.hostOn(h, d.node)
	}
	if err := c.alloc(d, desc.ID, size); err != nil {
		return 0, err
	}
	switch {
	case peer == nil:
		d.stats.TransferTime += c.transfer(d, c.linkOf(hostChannel, d.node), obs.EventH2D, desc.ID, size, float64(size)/c.h2dBandwidth())
		d.stats.H2DBytes += size
	case peer.node == d.node:
		// Intra-node P2P copies run on the node's inter-GPU fabric, shared
		// by all of its pairs.
		d.stats.TransferTime += c.transfer(d, c.linkOf(p2pChannel, d.node), obs.EventP2P, desc.ID, size, float64(size)/c.p2pBandwidth())
		d.stats.P2PBytes += size
	default:
		// Cross-node peer copy: serialized on the inter-node fabric,
		// charged at its bandwidth plus fixed latency.
		c.interTransfer(d, desc.ID, size)
		d.stats.P2PBytes += size
	}
	c.moveBytes += size
	d.stats.ColdMisses++
	i := d.install(size, false, slot)
	b := &c.index.blocks[i]
	b.pinned = pin
	b.readyAt = d.CopyClock()
	return i, nil
}

// interTransfer charges one inter-node shipment of tensor id, size bytes,
// toward device d's node: fixed interconnect latency plus bytes at the
// (degradable) inter-node bandwidth, on the single shared inter-node fabric.
func (c *Cluster) interTransfer(d *Device, id uint64, size int64) {
	dur := c.cfg.InterNodeLatency + float64(size)/c.interBandwidth()
	d.stats.TransferTime += c.transfer(d, c.linkOf(interChannel, 0), obs.EventInter, id, size, dur)
	c.interBytes += size
}

// writeBack copies slot's tensor, size bytes, from device d into its node's
// host partition and returns the elapsed queue time for the caller to charge.
func (c *Cluster) writeBack(d *Device, slot int32, size int64) float64 {
	elapsed := c.transfer(d, c.linkOf(hostChannel, d.node), obs.EventD2H, c.ids[slot], size, float64(size)/c.d2hBandwidth())
	d.stats.D2HBytes += size
	c.d2hBytes += size
	c.hostCopy(slot, d.node)
	return elapsed
}

// transfer is the one place a link is booked: a copy of tensor id, size
// bytes, by device d holding link l for dur seconds, which moves d's transfer
// queue to its end. It returns the elapsed queue time, stall included, for
// the caller to charge.
func (c *Cluster) transfer(d *Device, l *link, kind obs.EventKind, id uint64, size int64, dur float64) float64 {
	d.markDirty()
	queue := d.CopyClock()
	start, end := l.occupy(queue, dur)
	if c.cfg.AsyncCopy {
		d.copyClock = end
	} else {
		d.clock = end
	}
	if s := c.sink; s != nil {
		s.links[l.ch].busy.v += dur
		s.links[l.ch].stall.v += start - queue
	}
	if c.observing() {
		// The traced start is end − dur, which can sit an ulp off the booked
		// start; the golden traces and report hashes pin this one.
		c.emit(kind, d.id, id, end-dur, end, size, 0)
	}
	return end - queue
}

// alloc charges allocation latency (on the transfer queue: it is part of
// the staging path) and evicts LRU blocks until size bytes of tensor id fit.
func (c *Cluster) alloc(d *Device, id uint64, size int64) error {
	if err := d.evictFor(size); err != nil {
		return fmt.Errorf("allocating tensor %d: %w", id, err)
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
		size := out.Bytes()
		if err := c.alloc(d, out.ID, size); err != nil {
			c.index.blocks[ia].pinned, c.index.blocks[ib].pinned = false, false
			return 0, err
		}
		io = d.install(size, true, int32(slotOut))
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
	ri := c.index
	if r := &ri.recs[slot]; r.onHost {
		if h := &ri.hosts[slot]; h.far.n > 0 {
			ri.release(h.far)
		}
		r.onHost = false
	}
}

// Barrier synchronizes all device queues to the maximum, modeling the
// stage boundary between dependency-partitioned vectors. The host links
// need no raise: a host transfer starts no earlier than its device's
// queue, which is now at least the maximum.
func (c *Cluster) Barrier() {
	t := c.Makespan()
	c.dirty.markAll()
	for _, d := range c.devices {
		if d.clock < t {
			d.clock = t
		}
		if d.copyClock < t {
			d.copyClock = t
		}
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
	// records and rewinding the slabs replaces a drop per resident block.
	c.index.reset()
	c.dirty.markAll()
	for i := range c.links {
		c.links[i].free = 0
	}
	c.interBytes = 0
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
// accounting it as transfer time that no link booked. sched's engine
// charges a fault plan's retry backoff with it.
func (c *Cluster) ChargeExternalTransfer(dev int, seconds float64) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	if !nonNegative(seconds) {
		return fmt.Errorf("gpusim: external transfer %v must be non-negative and finite", seconds)
	}
	d.advanceTransferQueue(seconds)
	d.stats.TransferTime += seconds
	return nil
}
