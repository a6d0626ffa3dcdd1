// Package multinode implements the paper's stated future work: extending
// MICCO "to a multi-node cluster with GPUs". It composes per-node gpusim
// clusters (each with its own host, memory pools and host link) behind a
// shared inter-node network fabric, and schedules hierarchically — a
// node-level policy picks the node (reuse-aware with a node reuse bound,
// or earliest-available as the baseline), then a per-node MICCO instance
// picks the device.
//
// Data placement follows the intra-node model one level up: every input
// starts on node 0's host (the launch node, standing in for a parallel
// filesystem gateway); the first time another node needs a tensor it pays
// an inter-node network transfer, serialized on the shared fabric, after
// which the tensor is cached on that node's host.
package multinode

import (
	"context"
	"fmt"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// Config describes the simulated multi-node system.
type Config struct {
	// Nodes is the node count.
	Nodes int
	// Node is the per-node hardware configuration (its NumDevices is the
	// per-node GPU count).
	Node gpusim.Config
	// NetworkBandwidth is the shared inter-node fabric bandwidth in
	// bytes/s; all cross-node traffic serializes on it.
	NetworkBandwidth float64
	// NetworkLatency is the fixed per-transfer latency in seconds.
	NetworkLatency float64
	// NodeReuseBound is the node-level analog of the paper's reuse
	// bounds: the per-stage pair-count slack a node may absorb beyond
	// perfect balance in exchange for node-local data reuse. The
	// inter-node fabric is far slower than intra-node links, so the
	// optimum sits much higher than the intra-node bounds — small values
	// force fabric traffic, while unbounded concentration wastes the
	// other nodes' compute (the paper's trade-off, one level up).
	NodeReuseBound int
	// DeviceBounds are the intra-node MICCO reuse bounds.
	DeviceBounds core.Bounds
	// GrouteNodes selects the baseline policy — earliest-available node
	// and Groute device placement, ignoring locality — for comparisons.
	GrouteNodes bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("multinode: %w: Nodes must be positive", gpusim.ErrInvalidConfig)
	}
	if c.NetworkBandwidth <= 0 {
		return fmt.Errorf("multinode: %w: NetworkBandwidth must be positive", gpusim.ErrInvalidConfig)
	}
	if c.NetworkLatency < 0 {
		return fmt.Errorf("multinode: %w: NetworkLatency must be non-negative", gpusim.ErrInvalidConfig)
	}
	if c.NodeReuseBound < 0 {
		return fmt.Errorf("multinode: %w: NodeReuseBound must be non-negative", gpusim.ErrInvalidConfig)
	}
	return c.Node.Validate()
}

// DefaultConfig returns n nodes of g MI100-class GPUs behind a 12 GB/s
// fabric (InfiniBand-class effective bandwidth).
func DefaultConfig(n, g int) Config {
	return Config{
		Nodes:            n,
		Node:             gpusim.MI100(g),
		NetworkBandwidth: 12e9,
		NetworkLatency:   20e-6,
		NodeReuseBound:   16,
		DeviceBounds:     core.Bounds{0, 2, 0},
	}
}

// Cluster is a simulated multi-node system.
type Cluster struct {
	cfg      Config
	nodes    []*gpusim.Cluster
	netClock float64
	// onNode tracks which nodes hold a host copy of each tensor.
	onNode []map[uint64]bool
	// netBytes counts total inter-node traffic.
	netBytes int64
}

// NewCluster builds a multi-node cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mc := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := gpusim.NewCluster(cfg.Node)
		if err != nil {
			return nil, err
		}
		mc.nodes = append(mc.nodes, n)
		mc.onNode = append(mc.onNode, make(map[uint64]bool))
	}
	return mc, nil
}

// Config returns the cluster configuration.
func (mc *Cluster) Config() Config { return mc.cfg }

// Node returns node i's intra-node cluster.
func (mc *Cluster) Node(i int) *gpusim.Cluster { return mc.nodes[i] }

// NumNodes returns the node count.
func (mc *Cluster) NumNodes() int { return len(mc.nodes) }

// NetBytes returns total inter-node traffic in bytes.
func (mc *Cluster) NetBytes() int64 { return mc.netBytes }

// Makespan returns the global completion time.
func (mc *Cluster) Makespan() float64 {
	m := mc.netClock
	for _, n := range mc.nodes {
		if t := n.Makespan(); t > m {
			m = t
		}
	}
	return m
}

// reset prepares the cluster for a fresh run of workload w.
func (mc *Cluster) reset(w *workload.Workload) {
	mc.netClock = 0
	mc.netBytes = 0
	for i, n := range mc.nodes {
		n.Reset()
		mc.onNode[i] = make(map[uint64]bool)
	}
	// Inputs land on node 0's host (the data gateway).
	for _, d := range w.Inputs {
		mc.nodes[0].RegisterHostTensor(d)
		mc.onNode[0][d.ID] = true
	}
}

// stageOperand makes tensor d available on node n's host, paying a network
// transfer serialized on the shared fabric. The destination-side time is
// charged to device dev's staging queue (network -> host -> device chain).
func (mc *Cluster) stageOperand(n, dev int, d tensor.Desc) error {
	if mc.onNode[n][d.ID] {
		return nil
	}
	dur := mc.cfg.NetworkLatency + float64(d.Bytes())/mc.cfg.NetworkBandwidth
	queue := mc.nodes[n].Device(dev).CopyClock()
	start := queue
	if mc.netClock > start {
		start = mc.netClock
	}
	end := start + dur
	mc.netClock = end
	mc.netBytes += d.Bytes()
	if err := mc.nodes[n].ChargeExternalTransfer(dev, end-queue); err != nil {
		return err
	}
	mc.nodes[n].RegisterHostTensor(d)
	mc.onNode[n][d.ID] = true
	return nil
}

// holdsAnywhere reports whether node n already has tensor id on any device
// or its host (including write-backs of locally produced intermediates).
func (mc *Cluster) holdsAnywhere(n int, id uint64) bool {
	return mc.onNode[n][id] || mc.nodes[n].HostHolds(id) || !mc.nodes[n].HoldersMask(id).Empty()
}

// pickNode is the node-level scheduling policy. The MICCO-style policy
// mirrors Algorithm 1 one level up: prefer nodes already holding both
// operands, then one, gated by the node reuse bound against per-stage pair
// balance; fall back to all nodes; choose the earliest-available candidate.
// The baseline policy takes the earliest-available node outright.
func (mc *Cluster) pickNode(p workload.Pair, load []int, balance int) int {
	earliest := func(cands []int) int {
		best, bestT := cands[0], mc.nodes[cands[0]].Makespan()
		for _, n := range cands[1:] {
			if t := mc.nodes[n].Makespan(); t < bestT {
				best, bestT = n, t
			}
		}
		return best
	}
	all := make([]int, mc.cfg.Nodes)
	for i := range all {
		all[i] = i
	}
	if mc.cfg.GrouteNodes {
		return earliest(all)
	}
	limit := balance + mc.cfg.NodeReuseBound
	var both, one []int
	for n := range mc.nodes {
		if load[n] >= limit {
			continue
		}
		a := mc.holdsAnywhere(n, p.A.ID)
		b := mc.holdsAnywhere(n, p.B.ID)
		switch {
		case a && b:
			both = append(both, n)
		case a || b:
			one = append(one, n)
		}
	}
	if len(both) > 0 {
		return earliest(both)
	}
	if len(one) > 0 {
		return earliest(one)
	}
	var under []int
	for n := range mc.nodes {
		if load[n] < limit {
			under = append(under, n)
		}
	}
	if len(under) == 0 {
		under = all
	}
	return earliest(under)
}

// Result summarizes a multi-node run.
type Result struct {
	Workload string
	Makespan float64
	GFLOPS   float64
	NetBytes int64
	// NodeStats aggregates each node's device counters.
	NodeStats []gpusim.DeviceStats
	// PairsPerNode counts assignments per node.
	PairsPerNode []int
}

// Run executes workload w on the multi-node cluster: the node policy picks
// a node per pair, missing operands are staged over the fabric, and a
// per-node scheduler (MICCO with cfg.DeviceBounds, or Groute under
// cfg.GrouteNodes) places the contraction on a device. Stages end with a
// global barrier across nodes. ctx cancels the run, checked at every pair.
func Run(ctx context.Context, w *workload.Workload, mc *Cluster) (*Result, error) {
	if w == nil || mc == nil {
		return nil, fmt.Errorf("multinode: %w: workload and cluster must be non-nil", sched.ErrNilArgument)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	mc.reset(w)
	nNodes := mc.cfg.Nodes
	perNodeGPU := mc.cfg.Node.NumDevices

	devScheds := make([]sched.Scheduler, nNodes)
	ctxs := make([]*sched.Context, nNodes)
	for i := range devScheds {
		if mc.cfg.GrouteNodes {
			devScheds[i] = baseline.NewGroute()
		} else {
			devScheds[i] = core.NewFixed(mc.cfg.DeviceBounds)
		}
		ctxs[i] = sched.NewContext(mc.nodes[i])
	}
	res := &Result{Workload: w.Name, PairsPerNode: make([]int, nNodes)}
	var totalFLOPs int64
	for si := range w.Stages {
		// Stage boundary: honor cancellation before refreshing per-node
		// scheduler state, not just between pairs — a cancel that lands
		// during the barrier would otherwise start the next stage's
		// BeginStage work before being noticed.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := &w.Stages[si]
		nodeLoad := make([]int, nNodes)
		nodeBalance := (len(st.Pairs) + nNodes - 1) / nNodes
		for i := range ctxs {
			ctxs[i].StageIndex = si
			ctxs[i].BalanceNum = (st.NumTensors()/nNodes + perNodeGPU - 1) / perNodeGPU
			ctxs[i].ResetLoad()
			ctxs[i].Features = w.StageFeatures(si)
			devScheds[i].BeginStage(ctxs[i])
		}
		for _, p := range st.Pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			node := mc.pickNode(p, nodeLoad, nodeBalance)
			nodeLoad[node]++
			res.PairsPerNode[node]++
			dev := devScheds[node].Assign(p, ctxs[node])
			if dev < 0 || dev >= perNodeGPU {
				return nil, fmt.Errorf("multinode: invalid device %d on node %d", dev, node)
			}
			// Stage missing operands across the network first.
			for _, op := range []tensor.Desc{p.A, p.B} {
				if !mc.holdsAnywhere(node, op.ID) {
					if err := mc.stageOperand(node, dev, op); err != nil {
						return nil, err
					}
				}
			}
			flops, err := mc.nodes[node].ExecContraction(dev, p.A, p.B, p.Out)
			if err != nil {
				return nil, fmt.Errorf("multinode: stage %d: %w", si, err)
			}
			totalFLOPs += flops
			ctxs[node].AddLoad(dev, 2)
		}
		// Global stage barrier across all nodes.
		m := mc.Makespan()
		for _, n := range mc.nodes {
			n.BarrierAt(m)
		}
	}
	res.Makespan = mc.Makespan()
	if res.Makespan > 0 {
		res.GFLOPS = float64(totalFLOPs) / res.Makespan / 1e9
	}
	res.NetBytes = mc.netBytes
	for _, n := range mc.nodes {
		res.NodeStats = append(res.NodeStats, n.TotalStats())
	}
	return res, nil
}
