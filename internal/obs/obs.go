// Package obs is the observability layer of the MICCO reproduction: a
// zero-dependency metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight spans with parent IDs, and per-placement
// scheduler decision records.
//
// One Registry is threaded through a run via sched.Options.Obs; the
// execution engine, the schedulers, and the GPU simulator all report into
// it, and it exports as Prometheus text (WritePrometheus), a JSON snapshot
// (Snapshot), and NDJSON decision records (WriteDecisionsNDJSON).
//
// Every instrument is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram or *ActiveSpan are no-ops that perform no allocation,
// so instrumented hot paths cost nothing when observability is disabled
// (guarded by TestDisabledObservabilityAllocatesNothing).
//
// Metric names may carry Prometheus labels inline, e.g.
// `micco_sim_bytes_total{channel="h2d"}`; the registry treats the full
// string as the series key and the exporters split base name from labels
// where the format requires it.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds every instrument of one observed run.
type Registry struct {
	epoch time.Time

	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	spans     []Span
	decisions []DecisionRecord
	// candArena is the current chunk of the registry-owned candidate
	// copy arena (see RecordDecision); full chunks stay alive through
	// the decision records pointing into them.
	candArena []CandidateScore

	nextSpanID atomic.Uint64

	// flight is the optional always-on flight recorder (flight.go): the
	// simulator feeds it events through this pointer, and its snapshots
	// read the decision and span stores above. Atomic so the simulator pays
	// one load, no lock, per event when no recorder is attached.
	flight atomic.Pointer[FlightRecorder]
}

// New returns an empty registry. Wall-clock span times are measured from
// this moment.
func New() *Registry {
	return &Registry{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named monotonically increasing counter, creating it
// on first use. Nil-safe: a nil registry returns a nil counter whose
// methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending; +Inf is implicit) on first use. Buckets of an
// existing histogram are not changed. Nil-safe.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing float64 counter. Safe for
// concurrent use; the zero value is ready.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v. Nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc increases the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 instrument that can go up and down. Safe for
// concurrent use; the zero value is ready.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark). Nil-safe.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus). Safe for concurrent use.
type Histogram struct {
	uppers []float64
	counts []atomic.Int64 // len(uppers)+1; last is the +Inf bucket
	sum    Counter
}

// DefSecondsBuckets are the default duration buckets (seconds) used for
// simulator kernel and transfer timings: decades from 10µs to 10s.
var DefSecondsBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

func newHistogram(buckets []float64) *Histogram {
	uppers := make([]float64, len(buckets))
	copy(uppers, buckets)
	sort.Float64s(uppers)
	return &Histogram{uppers: uppers, counts: make([]atomic.Int64, len(uppers)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.Bucket(v)].Add(1)
	h.sum.Add(v)
}

// Bucket returns the index of the bucket v falls in (Bucket(+Inf) is the
// last), for a single writer that batches through AddBatch. 0 on nil.
func (h *Histogram) Bucket(v float64) int {
	if h == nil {
		return 0
	}
	// Linear scan for the first upper bound >= v: bucket lists are short
	// (DefSecondsBuckets has 7) and a sequential pass beats the call and
	// branch structure of sort.SearchFloat64s at that size.
	i, u := 0, h.uppers
	for i < len(u) && u[i] < v {
		i++
	}
	return i
}

// AddBatch records counts[i] observations in bucket i (Bucket's indices)
// whose values add up to sum, at one atomic add per non-empty bucket. Nil-safe.
func (h *Histogram) AddBatch(counts []int64, sum float64) {
	if h == nil {
		return
	}
	for i, n := range counts {
		if n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(sum)
}

// Count returns the number of observations (0 on nil). Derived by summing
// the buckets — an export-time loop over a handful of atomics — so the
// Observe hot path pays one fewer atomic add.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// sinceEpoch returns seconds elapsed since the registry was created.
func (r *Registry) sinceEpoch() float64 { return time.Since(r.epoch).Seconds() }
