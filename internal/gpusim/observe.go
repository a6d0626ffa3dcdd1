package gpusim

import (
	"math"
	"strconv"

	"micco/internal/obs"
)

// acc is a counter series plus what has accrued to it since the last publish.
type acc struct {
	v   float64
	ctr *obs.Counter
}

func (a *acc) flush() {
	if a.v != 0 {
		a.ctr.Add(a.v)
		a.v = 0
	}
}

// obsSink is the simulator's end of an attached registry. A cluster is
// single-threaded, so observing an event is plain arithmetic on the sink's
// own fields — no atomics, map lookups or allocations — and publish moves
// the sums into the pre-resolved instruments, one Add per touched series.
// Integer-valued sums stay exact in a float64; seconds add in batch order.
type obsSink struct {
	reg  *obs.Registry
	devs []*Device
	// Per event kind: occurrence count, payload bytes, busy seconds (also
	// the histogram's sum), the pending counts of dur's buckets, and the
	// last duration seen with its bucket. A kind's events mostly repeat its
	// previous duration (one tensor size, one bandwidth: 99.9 % of them on
	// observed_run, faulted or not, 97 % on the smallest deck), and a repeat
	// costs one comparison instead of a bucket search.
	kinds [obs.NumEventKinds]struct {
		count, bytes, busy acc
		dur                *obs.Histogram
		buckets            []int64
		lastDur            float64
		lastBucket         int
	}
	// Shared-channel occupancy: the host links (all H2D/D2H traffic), the
	// P2P fabrics, and the inter-node interconnect — busy seconds plus
	// time transfers stalled waiting. Multi-node clusters aggregate all
	// their per-node links into these counters.
	hostBusy, hostStall   acc
	p2pBusy, p2pStall     acc
	interBusy, interStall acc
	flops                 acc
	// memPeak[i] is device i's high-water gauge, raised to the device's
	// own exact mark at every publish; pending counts events since then.
	memPeak []*obs.Gauge
	pending int
}

// sinkBatch is how many events the sink takes in before it publishes on its
// own: the publish vanishes per event, and bounds how far a scrape lags.
const sinkBatch = 1024

// kindSeries holds the per-kind metric names, built once at package init
// so SetObserver — which runs per engine Run — performs no formatting.
var kindSeries = func() (t [obs.NumEventKinds]struct{ count, bytes, busy, dur string }) {
	for k := range t {
		kind := strconv.Quote(obs.EventKind(k).String())
		t[k].count = "micco_sim_events_total{kind=" + kind + "}"
		t[k].bytes = "micco_sim_bytes_total{kind=" + kind + "}"
		t[k].busy = "micco_sim_busy_seconds_total{kind=" + kind + "}"
		t[k].dur = "micco_sim_seconds{kind=" + kind + "}"
	}
	return
}()

// memPeakSeries pre-builds the per-device high-water gauge names for
// common cluster widths; wider clusters fall back to concatenation.
var memPeakSeries = func() (t [64]string) {
	for i := range t {
		t[i] = memPeakName(i)
	}
	return
}()

func memPeakName(i int) string {
	return `micco_device_mem_peak_bytes{device="` + strconv.Itoa(i) + `"}`
}

// SetObserver attaches (or, with nil, detaches) a metrics registry. While
// attached, every simulated operation — kernels, transfers on each
// H2D/D2H/P2P channel, evictions — feeds counters and duration histograms,
// shared-link occupancy and stall time accumulate, and per-device memory
// high-water marks follow. The observer survives Reset, so one registry can
// watch a whole run. Series names come from pre-built label tables.
// The sink batches: it publishes every sinkBatch events, on FlushObserver
// (sched.Run: every stage boundary, before its snapshot, on failure), on
// Reset, and here, where the outgoing sink publishes before it is replaced.
// Read the registry after one of those, not straight after a simulator call.
func (c *Cluster) SetObserver(r *obs.Registry) {
	c.FlushObserver()
	if r == nil {
		c.sink = nil
		return
	}
	s := &obsSink{reg: r, devs: c.devices, memPeak: make([]*obs.Gauge, len(c.devices))}
	for k := range s.kinds {
		sk := &s.kinds[k]
		sk.count.ctr = r.Counter(kindSeries[k].count)
		sk.bytes.ctr = r.Counter(kindSeries[k].bytes)
		sk.busy.ctr = r.Counter(kindSeries[k].busy)
		sk.dur = r.Histogram(kindSeries[k].dur, obs.DefSecondsBuckets)
		sk.buckets = make([]int64, sk.dur.Bucket(math.Inf(1))+1)
		sk.lastBucket = sk.dur.Bucket(0) // lastDur's zero value
	}
	s.hostBusy.ctr = r.Counter("micco_sim_hostlink_busy_seconds_total")
	s.hostStall.ctr = r.Counter("micco_sim_hostlink_stall_seconds_total")
	s.p2pBusy.ctr = r.Counter("micco_sim_p2plink_busy_seconds_total")
	s.p2pStall.ctr = r.Counter("micco_sim_p2plink_stall_seconds_total")
	s.interBusy.ctr = r.Counter("micco_sim_interlink_busy_seconds_total")
	s.interStall.ctr = r.Counter("micco_sim_interlink_stall_seconds_total")
	s.flops.ctr = r.Counter("micco_sim_flops_total")
	for i := range c.devices {
		if i < len(memPeakSeries) {
			s.memPeak[i] = r.Gauge(memPeakSeries[i])
		} else {
			s.memPeak[i] = r.Gauge(memPeakName(i))
		}
	}
	c.sink = s
}

// FlushObserver publishes what the attached observer has accumulated: a
// registry read that follows sees every simulated operation so far.
func (c *Cluster) FlushObserver() {
	if c.sink != nil {
		c.sink.publish()
	}
}

// observe accumulates one simulated event (simulated seconds, not wall
// time), read where emit wrote it. An attached flight recorder is fed it
// unbatched — a post-mortem wants the events right up to the failure —
// behind one atomic load.
func (s *obsSink) observe(e *obs.Event) {
	k, d := &s.kinds[e.Kind], e.End-e.Start
	k.count.v++
	if e.Fault == obs.FaultNone { // a fault's Bytes is its argument
		k.bytes.v += float64(e.Bytes)
	}
	k.busy.v += d
	if d != k.lastDur {
		k.lastDur, k.lastBucket = d, k.dur.Bucket(d)
	}
	k.buckets[k.lastBucket]++
	if e.FLOPs != 0 { // kernels only
		s.flops.v += float64(e.FLOPs)
	}
	if fr := s.reg.FlightRecorder(); fr != nil {
		fr.RecordEvent(e)
	}
	if s.pending++; s.pending == sinkBatch {
		s.publish()
	}
}

// publish adds the accumulated deltas to the registry and zeroes them: Add,
// not a store, as several clusters may feed one registry (experiment.Harness).
func (s *obsSink) publish() {
	for i := range s.kinds {
		k := &s.kinds[i]
		if k.count.v != 0 {
			k.dur.AddBatch(k.buckets, k.busy.v)
			clear(k.buckets)
			k.count.flush()
			k.bytes.flush()
			k.busy.flush()
		}
	}
	for _, a := range [...]*acc{&s.hostBusy, &s.hostStall, &s.p2pBusy, &s.p2pStall, &s.interBusy, &s.interStall, &s.flops} {
		a.flush()
	}
	for i, d := range s.devs {
		s.memPeak[i].SetMax(float64(d.memPeak))
	}
	s.pending = 0
}
