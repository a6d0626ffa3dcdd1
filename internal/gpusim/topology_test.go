package gpusim

import (
	"errors"
	"math"
	"testing"

	"micco/internal/tensor"
)

func topoDesc(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 16, Batch: 1}
}

// TestConfigNodeGeometry pins NumNodes/NodeOf across edge geometries:
// unset, exact, ragged and oversized node sizes.
func TestConfigNodeGeometry(t *testing.T) {
	cases := []struct {
		devices, nodeSize, wantNodes int
	}{
		{8, 0, 1},  // no node grouping: one node
		{8, 8, 1},  // node size equal to the cluster
		{8, 12, 1}, // node size larger than the cluster
		{8, 4, 2},
		{10, 4, 3}, // ragged: last node holds 2 devices
		{256, 64, 4},
	}
	for _, tc := range cases {
		cfg := MI100(tc.devices)
		cfg.NodeSize = tc.nodeSize
		if tc.wantNodes > 1 {
			cfg.InterNodeBandwidth = 12e9
		}
		if got := cfg.NumNodes(); got != tc.wantNodes {
			t.Errorf("devices=%d nodeSize=%d: NumNodes = %d, want %d",
				tc.devices, tc.nodeSize, got, tc.wantNodes)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("devices=%d nodeSize=%d: Validate: %v", tc.devices, tc.nodeSize, err)
		}
	}
	cfg := MI100Nodes(4, 8)
	for dev, want := range map[int]int{0: 0, 7: 0, 8: 1, 31: 3} {
		if got := cfg.NodeOf(dev); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", dev, got, want)
		}
	}
}

// TestConfigErrorsAreTyped checks Validate reports each failure as a
// *ConfigError naming the offending field, unwrapping to ErrInvalidConfig.
func TestConfigErrorsAreTyped(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"no-devices", func(c *Config) { c.NumDevices = 0 }, "NumDevices"},
		{"negative-node-size", func(c *Config) { c.NodeSize = -1 }, "NodeSize"},
		{"multi-node-no-bandwidth", func(c *Config) { c.NodeSize = 2 }, "InterNodeBandwidth"},
		{"negative-inter-latency", func(c *Config) { c.NodeSize = 2; c.InterNodeBandwidth = 1e9; c.InterNodeLatency = -1 }, "InterNodeLatency"},
		{"zero-memory", func(c *Config) { c.MemoryBytes = 0 }, "MemoryBytes"},
		{"negative-flops", func(c *Config) { c.FLOPS = -1 }, "FLOPS"},
		{"zero-bandwidth", func(c *Config) { c.P2PBandwidth = 0 }, "Bandwidth"},
		{"negative-latency", func(c *Config) { c.EvictLatency = -1 }, "Latency"},
		{"nan-flops", func(c *Config) { c.FLOPS = math.NaN() }, "FLOPS"},
		{"inf-flops", func(c *Config) { c.FLOPS = math.Inf(1) }, "FLOPS"},
		{"nan-h2d-bandwidth", func(c *Config) { c.H2DBandwidth = math.NaN() }, "Bandwidth"},
		{"inf-d2h-bandwidth", func(c *Config) { c.D2HBandwidth = math.Inf(1) }, "Bandwidth"},
		{"nan-kernel-launch", func(c *Config) { c.KernelLaunch = math.NaN() }, "Latency"},
		{"inf-alloc-latency", func(c *Config) { c.AllocLatency = math.Inf(1) }, "Latency"},
		{"nan-inter-bandwidth", func(c *Config) { c.NodeSize = 2; c.InterNodeBandwidth = math.NaN() }, "InterNodeBandwidth"},
		{"inf-inter-bandwidth", func(c *Config) { c.NodeSize = 2; c.InterNodeBandwidth = math.Inf(1) }, "InterNodeBandwidth"},
		{"nan-inter-latency", func(c *Config) { c.NodeSize = 2; c.InterNodeBandwidth = 1e9; c.InterNodeLatency = math.NaN() }, "InterNodeLatency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MI100(4)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("err = %v, want ErrInvalidConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			if ce.Reason == "" {
				t.Error("ConfigError.Reason is empty")
			}
		})
	}
}

// TestDeviceProfilesInherit checks every device inherits its hardware
// profile from the cluster Config — there is one per cluster — and that
// the Config's rate actually steers the simulated kernel cost: the same
// contraction takes longer on a cluster configured at half the FLOPS.
func TestDeviceProfilesInherit(t *testing.T) {
	full := MI100(2)
	half := full
	half.FLOPS /= 2
	half.MemoryBytes /= 2
	var clusters [2]*Cluster
	for i, cfg := range []Config{full, half} {
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for dev := 0; dev < c.NumDevices(); dev++ {
			if got := c.Device(dev).Capacity(); got != cfg.MemoryBytes {
				t.Errorf("device %d capacity = %d, want the Config's %d", dev, got, cfg.MemoryBytes)
			}
		}
		clusters[i] = c
	}
	a, b, out := topoDesc(1), topoDesc(2), topoDesc(3)
	for _, c := range clusters {
		c.RegisterHostTensor(a)
		c.RegisterHostTensor(b)
		if _, err := c.ExecContraction(1, a, b, out); err != nil {
			t.Fatal(err)
		}
	}
	if fast, slow := clusters[0].Device(1).Clock(), clusters[1].Device(1).Clock(); slow <= fast {
		t.Errorf("half-rate device finished at %g, full-rate at %g; want slower", slow, fast)
	}
}

// TestHostNodeCacheAcrossTheInlineSeam: a node's host partition keeps a
// shipped copy whatever the node's number — below, at and past the 64 nodes
// of the inline word, and out of order in the run past it — so a second
// fetch from the node ships nothing.
func TestHostNodeCacheAcrossTheInlineSeam(t *testing.T) {
	c, err := NewCluster(MI100Nodes(130, 1))
	if err != nil {
		t.Fatal(err)
	}
	d := topoDesc(1)
	c.RegisterHostTensor(d)
	for i, node := range []int{63, 64, 65, 129, 128} {
		for fetch := 0; fetch < 2; fetch++ {
			if err := c.EnsureResident(node, d); err != nil {
				t.Fatal(err)
			}
			c.DiscardDeviceCopies(d.ID)
		}
		if got, want := c.InterNodeBytes(), int64(i+1)*d.Bytes(); got != want {
			t.Errorf("node %d fetched twice: %d inter-node bytes, want %d", node, got, want)
		}
		checkAudit(t, c)
	}
}

// TestInterNodeStagingCost pins the topology cost model: a fetch into a
// node that has never seen the tensor pays one inter-node shipment
// (latency + bytes at the interconnect rate) on top of the local H2D, a
// second fetch in the same node pays local cost only, and the same fetch
// inside the gateway node never touches the interconnect. A host copy
// registered by ID and one registered by slot on a bound cluster both land
// in the gateway node.
func TestInterNodeStagingCost(t *testing.T) {
	cfg := MI100Nodes(2, 2)
	cfg.AllocLatency = 0
	cfg.KernelLaunch = 0
	d := topoDesc(1)
	for _, bySlot := range []bool{false, true} {
		t.Run(map[bool]string{false: "RegisterHostTensor", true: "RegisterHostAt"}[bySlot], func(t *testing.T) {
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bySlot {
				c.BindTensors([]uint64{d.ID})
				c.RegisterHostAt(0)
			} else {
				c.RegisterHostTensor(d) // lands in node 0's partition
			}
			checkStagingCost(t, c, cfg, d)
		})
	}
}

// checkStagingCost fetches d, whose host copy c has in node 0, on both
// nodes of c, cfg's 2×2 cluster, and checks what each fetch costs.
func checkStagingCost(t *testing.T, c *Cluster, cfg Config, d tensor.Desc) {
	t.Helper()
	localH2D := float64(d.Bytes()) / cfg.H2DBandwidth

	// Gateway-node fetch: local H2D only, no interconnect traffic.
	if err := c.EnsureResident(0, d); err != nil {
		t.Fatal(err)
	}
	if got := c.Device(0).Clock(); math.Abs(got-localH2D) > 1e-12 {
		t.Errorf("node-0 fetch cost %g, want local H2D %g", got, localH2D)
	}
	if c.InterNodeBytes() != 0 {
		t.Errorf("node-0 fetch moved %d inter-node bytes, want 0", c.InterNodeBytes())
	}

	// First fetch into node 1: inter-node shipment plus local H2D.
	inter := cfg.InterNodeLatency + float64(d.Bytes())/cfg.InterNodeBandwidth
	if err := c.EnsureResident(2, d); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Device(2).Clock(), inter+localH2D; math.Abs(got-want) > 1e-12 {
		t.Errorf("first node-1 fetch cost %g, want inter+H2D %g", got, want)
	}
	if c.InterNodeBytes() != d.Bytes() {
		t.Errorf("inter-node bytes = %d, want %d", c.InterNodeBytes(), d.Bytes())
	}

	// Second fetch inside node 1: the shipped copy is cached node-side, so
	// only a local H2D is paid (queued behind the first fetch on the node's
	// shared host link) and no new interconnect traffic appears.
	if err := c.EnsureResident(3, d); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Device(3).Clock(), inter+2*localH2D; math.Abs(got-want) > 1e-12 {
		t.Errorf("repeat node-1 fetch finished at %g, want %g (no second shipment)", got, want)
	}
	if c.InterNodeBytes() != d.Bytes() {
		t.Errorf("repeat fetch moved more inter-node bytes: %d", c.InterNodeBytes())
	}
}

// TestInterNodeLinkDegrade checks DegradeLink scales the inter-node
// interconnect alongside the host links.
func TestInterNodeLinkDegrade(t *testing.T) {
	cfg := MI100Nodes(2, 2)
	cfg.AllocLatency = 0
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := topoDesc(1)
	c.RegisterHostTensor(d)
	if err := c.DegradeLink(0.5); err != nil {
		t.Fatal(err)
	}
	inter := cfg.InterNodeLatency + float64(d.Bytes())/(cfg.InterNodeBandwidth*0.5)
	localH2D := float64(d.Bytes()) / (cfg.H2DBandwidth * 0.5)
	if err := c.EnsureResident(2, d); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Device(2).Clock(), inter+localH2D; math.Abs(got-want) > 1e-12 {
		t.Errorf("degraded cross-node fetch cost %g, want %g", got, want)
	}
}

// TestCrossNodePeerFetch checks peer sourcing prefers a same-node holder
// and that a cross-node peer copy is charged to the interconnect.
func TestCrossNodePeerFetch(t *testing.T) {
	cfg := MI100Nodes(2, 2)
	cfg.PeerFetch = true
	cfg.AllocLatency = 0
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := topoDesc(1)
	c.RegisterHostTensor(d)
	if err := c.EnsureResident(0, d); err != nil { // node 0 holder
		t.Fatal(err)
	}
	base := c.InterNodeBytes()
	// Cross-node fetch with only a node-0 holder: the peer copy crosses the
	// interconnect and counts as P2P traffic.
	if err := c.EnsureResident(2, d); err != nil {
		t.Fatal(err)
	}
	if got := c.InterNodeBytes() - base; got != d.Bytes() {
		t.Errorf("cross-node peer copy moved %d inter-node bytes, want %d", got, d.Bytes())
	}
	if got := c.Device(2).Stats().P2PBytes; got != d.Bytes() {
		t.Errorf("cross-node peer copy P2P bytes = %d, want %d", got, d.Bytes())
	}
	// Now device 3 (node 1) has a same-node holder in device 2: the fetch
	// must ride the node fabric, adding no interconnect traffic.
	before := c.InterNodeBytes()
	if err := c.EnsureResident(3, d); err != nil {
		t.Fatal(err)
	}
	if got := c.InterNodeBytes(); got != before {
		t.Errorf("same-node peer fetch moved %d extra inter-node bytes", got-before)
	}
}
