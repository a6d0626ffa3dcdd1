// Package gpusim implements a deterministic discrete-event simulator of a
// multi-GPU cluster, substituting for the eight-MI100 testbed of the MICCO
// paper. It models exactly the observables the schedulers react to: tensor
// residency per device, host-to-device and peer-to-peer transfer cost,
// memory-pool pressure with LRU eviction (including dirty write-back), and
// kernel execution time derived from exact contraction FLOP counts.
//
// Timing model. Each device has a compute queue and a copy queue, one and
// the same unless Config.AsyncCopy gives it a copy engine; every operation
// on a device advances one of them by its cost. Every copy also books one
// shared link: its node's host link for H2D fetches and D2H write-backs,
// modeling the single-CPU fabric of the paper's testbed; its node's
// inter-GPU fabric for P2P copies; the inter-node interconnect for anything
// that crosses nodes (see Config.NodeSize). A copy begins when both its
// device's copy queue and the link are free, and moves both to its end.
// Stage barriers synchronize all device queues to the maximum, matching the
// paper's dependency-staged execution. The makespan is the latest queue,
// and throughput is total useful kernel FLOPs divided by makespan.
package gpusim

import (
	"fmt"
	"math"
)

// Config describes the simulated cluster hardware.
type Config struct {
	// NumDevices is the number of GPUs in the cluster (the paper uses 1-8;
	// the simulator accepts up to MaxDevices).
	NumDevices int
	// MemoryBytes is the usable memory pool per device.
	MemoryBytes int64
	// FLOPS is the sustained rate, in FLOP/s, a device achieves on batched
	// complex contraction kernels.
	FLOPS float64
	// H2DBandwidth is host-to-device copy bandwidth in bytes/s. Each
	// node's host link is a single shared resource: concurrent transfers
	// from all of that node's devices serialize on it.
	H2DBandwidth float64
	// D2HBandwidth is device-to-host bandwidth in bytes/s, paid by dirty
	// eviction write-backs and host staging; it shares the host link.
	D2HBandwidth float64
	// P2PBandwidth is device-to-device copy bandwidth in bytes/s
	// (xGMI-class), used when a needed tensor is resident on a peer in the
	// same node.
	P2PBandwidth float64
	// KernelLaunch is the fixed per-kernel launch latency in seconds.
	KernelLaunch float64
	// AllocLatency is the fixed cost of carving a block from the memory
	// pool, in seconds.
	AllocLatency float64
	// EvictLatency is the fixed bookkeeping cost of one eviction, in
	// seconds, in addition to any dirty write-back transfer.
	EvictLatency float64
	// PeerFetch enables sourcing a non-resident tensor from a peer GPU by
	// P2P copy when one holds it. Off by default: the Redstar integration
	// the paper evaluates stages hadron tensors through host memory, so a
	// residency miss costs an H2D transfer regardless of peer copies.
	// Enabling it models an xGMI-style direct data path (exercised by the
	// ablation benchmarks).
	PeerFetch bool
	// AsyncCopy gives each device a dedicated copy engine: transfers run
	// on a separate per-device copy queue (still serializing on the
	// shared host link) and overlap with kernel execution, so a kernel
	// waits only for its own operands' copies. Off by default — the
	// paper's integration issues synchronous copies; asynchronous copy
	// and prefetching are its stated future work, implemented here as an
	// extension (see the ablation benchmarks).
	AsyncCopy bool

	// NodeSize groups consecutive device IDs into nodes of this size:
	// devices [0,NodeSize) form node 0, [NodeSize,2*NodeSize) node 1, and
	// so on (a final partial node is allowed). Each node owns its own host
	// link and P2P fabric; traffic between nodes rides a distinct
	// inter-node interconnect (InterNodeBandwidth/InterNodeLatency). Zero
	// means the whole cluster is one node, the paper's single-box testbed.
	NodeSize int
	// InterNodeBandwidth is the bytes/s rate of the inter-node
	// interconnect (InfiniBand/Slingshot-class). Transfers between nodes —
	// cross-node peer copies, and host staging of data whose host copy
	// lives on another node — serialize on this single shared fabric.
	// Required (positive) when NodeSize yields more than one node.
	InterNodeBandwidth float64
	// InterNodeLatency is the fixed per-transfer latency of the
	// inter-node interconnect, in seconds.
	InterNodeLatency float64
}

// MI100 returns a configuration calibrated to the paper's testbed: n AMD
// MI100-class devices with 32 GiB pools, host-staged transfers, and a
// single shared host link. The constants are sustained *effective* rates,
// not datasheet peaks, chosen so that (a) a one-GPU run is roughly
// compute-bound while an eight-GPU run is bound by the shared host link —
// reproducing the paper's weak throughput scaling from one to eight GPUs
// (Fig. 9, 7877 to 13043 GFLOPS) — and (b) memory operations dominate
// kernels for small tensors, as the paper's Table V timing implies.
func MI100(n int) Config {
	return Config{
		NumDevices:   n,
		MemoryBytes:  32 << 30,
		FLOPS:        5e12,
		H2DBandwidth: 48e9,
		D2HBandwidth: 48e9,
		P2PBandwidth: 64e9,
		KernelLaunch: 10e-6,
		AllocLatency: 5e-6,
		EvictLatency: 10e-6,
	}
}

// MI100Nodes returns a multi-node configuration of MI100-class devices:
// nodes nodes of perNode GPUs each, joined by an InfiniBand-class
// inter-node interconnect an order of magnitude slower than the in-node
// host link. It is the stock large-cluster configuration of the
// scalability benchmarks.
func MI100Nodes(nodes, perNode int) Config {
	cfg := MI100(nodes * perNode)
	cfg.NodeSize = perNode
	cfg.InterNodeBandwidth = 12e9
	cfg.InterNodeLatency = 5e-6
	return cfg
}

// NumNodes returns the number of nodes the configuration describes (1 when
// NodeSize is zero or covers the whole cluster).
func (c Config) NumNodes() int {
	if c.NodeSize <= 0 || c.NodeSize >= c.NumDevices {
		return 1
	}
	return (c.NumDevices + c.NodeSize - 1) / c.NodeSize
}

// NodeOf returns the node a device belongs to.
func (c Config) NodeOf(dev int) int {
	if c.NodeSize <= 0 {
		return 0
	}
	return dev / c.NodeSize
}

// Validate reports whether the configuration is usable. Failures are
// *ConfigError values naming the offending field, wrapping
// ErrInvalidConfig.
func (c Config) Validate() error {
	switch {
	case c.NumDevices <= 0:
		return &ConfigError{Field: "NumDevices", Reason: "must be positive"}
	case c.NumDevices > MaxDevices:
		// DevSet holder sets widen automatically; this caps simulator
		// memory (one Device with residency maps per simulated GPU).
		return &ConfigError{Field: "NumDevices", Reason: fmt.Sprintf("%d exceeds the %d-device simulator cap", c.NumDevices, MaxDevices)}
	case c.MemoryBytes <= 0:
		return &ConfigError{Field: "MemoryBytes", Reason: "must be positive"}
	case !positive(c.FLOPS):
		return &ConfigError{Field: "FLOPS", Reason: "must be positive and finite"}
	case !positive(c.H2DBandwidth) || !positive(c.D2HBandwidth) || !positive(c.P2PBandwidth):
		return &ConfigError{Field: "Bandwidth", Reason: "all bandwidths must be positive and finite"}
	case !nonNegative(c.KernelLaunch) || !nonNegative(c.AllocLatency) || !nonNegative(c.EvictLatency):
		return &ConfigError{Field: "Latency", Reason: "latencies must be non-negative and finite"}
	case c.NodeSize < 0:
		return &ConfigError{Field: "NodeSize", Reason: "must be non-negative"}
	case c.NumNodes() > 1 && !positive(c.InterNodeBandwidth):
		return &ConfigError{Field: "InterNodeBandwidth", Reason: "must be positive and finite when the cluster spans multiple nodes"}
	case !nonNegative(c.InterNodeBandwidth):
		return &ConfigError{Field: "InterNodeBandwidth", Reason: "must be non-negative and finite"}
	case !nonNegative(c.InterNodeLatency):
		return &ConfigError{Field: "InterNodeLatency", Reason: "must be non-negative and finite"}
	}
	return nil
}

// positive and nonNegative refuse NaN and ±Inf too: they would reach a clock.
func positive(x float64) bool    { return x > 0 && x <= math.MaxFloat64 }
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }
