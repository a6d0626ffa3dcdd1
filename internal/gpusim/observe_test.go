package gpusim

import (
	"testing"

	"micco/internal/obs"
)

// TestObserverFeedsRegistry checks that an attached registry sees every
// simulated operation: channel byte counters, event counts, link
// occupancy, and memory high-water gauges — once the sink has published,
// and not before: the sink batches (SetObserver's contract).
func TestObserverFeedsRegistry(t *testing.T) {
	cfg := testConfig(2)
	sz := desc(0, 64, 1).Bytes()
	cfg.MemoryBytes = 3 * sz
	c, _ := NewCluster(cfg)
	reg := obs.New()
	c.SetObserver(reg)

	a, b, out := desc(1, 64, 1), desc(2, 64, 1), desc(3, 64, 1)
	c.RegisterHostTensor(a)
	c.RegisterHostTensor(b)
	if _, err := c.ExecContraction(0, a, b, out); err != nil {
		t.Fatal(err)
	}
	c.FlushObserver()
	if got := reg.Counter(`micco_sim_bytes_total{kind="h2d"}`).Value(); got != float64(2*sz) {
		t.Errorf("h2d bytes = %v, want %v", got, 2*sz)
	}
	if got := reg.Counter(`micco_sim_events_total{kind="kernel"}`).Value(); got != 1 {
		t.Errorf("kernel events = %v, want 1", got)
	}
	if reg.Counter("micco_sim_flops_total").Value() <= 0 {
		t.Error("flops counter not fed")
	}
	if reg.Counter("micco_sim_hostlink_busy_seconds_total").Value() <= 0 {
		t.Error("host link occupancy not fed")
	}
	if got := reg.Gauge(`micco_device_mem_peak_bytes{device="0"}`).Value(); got != float64(3*sz) {
		t.Errorf("mem peak gauge = %v, want %v", got, 3*sz)
	}
	if got := reg.Histogram(`micco_sim_seconds{kind="h2d"}`, obs.DefSecondsBuckets).Count(); got != 2 {
		t.Errorf("h2d duration observations = %d, want 2", got)
	}

	// The observer survives Reset and keeps accumulating; detaching stops.
	c.Reset()
	c.RegisterHostTensor(a)
	if err := c.EnsureResident(1, a); err != nil {
		t.Fatal(err)
	}
	// Fewer than sinkBatch events since the last publish and no flush: the
	// registry still holds the previously published value.
	if got := reg.Counter(`micco_sim_bytes_total{kind="h2d"}`).Value(); got != float64(2*sz) {
		t.Errorf("unflushed h2d bytes = %v, want the published %v", got, 2*sz)
	}
	c.FlushObserver()
	if got := reg.Counter(`micco_sim_bytes_total{kind="h2d"}`).Value(); got != float64(3*sz) {
		t.Errorf("post-Reset h2d bytes = %v, want %v", got, 3*sz)
	}
	c.SetObserver(nil)
	c.RegisterHostTensor(b)
	if err := c.EnsureResident(1, b); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`micco_sim_bytes_total{kind="h2d"}`).Value(); got != float64(3*sz) {
		t.Errorf("detached observer still fed: %v", got)
	}
}
