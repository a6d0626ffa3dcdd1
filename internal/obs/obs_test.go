package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	c.Add(2.5)
	c.Inc()
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	if r.Counter("c_total") != c {
		t.Error("Counter should return the same instrument per name")
	}
	g := r.Gauge("g")
	g.Set(4)
	g.SetMax(2)
	if g.Value() != 4 {
		t.Errorf("SetMax lowered the gauge: %v", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Errorf("SetMax did not raise the gauge: %v", g.Value())
	}
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Errorf("histogram count/sum = %d/%v", h.Count(), h.Sum())
	}
	hs := snapshotHistogram(h)
	// Cumulative: le=1 holds 0.5 and 1, le=10 adds 5, +Inf adds 100.
	want := []int64{2, 3, 4}
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(hs.Buckets[2].UpperBound, 1) {
		t.Error("last bucket should be +Inf")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent counter = %v, want 8000", c.Value())
	}
}

// TestDisabledObservabilityAllocatesNothing pins the acceptance criterion
// that instrumentation on a disabled (nil) registry is free: every nil-safe
// call on the placement hot path performs zero allocations.
func TestDisabledObservabilityAllocatesNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(200, func() {
		r.Counter("c").Add(1)
		r.Counter("c").Inc()
		r.Gauge("g").Set(1)
		r.Gauge("g").SetMax(2)
		r.Histogram("h", DefSecondsBuckets).Observe(0.5)
		sp := r.StartSpan("s", nil)
		sp.SetAttr("k", "v")
		sp.End()
		r.RecordDecision(&DecisionRecord{})
		_ = r.Snapshot()
		_ = r.Decisions()
		_ = r.Spans()
	})
	if allocs != 0 {
		t.Errorf("disabled observability allocated %v times per run, want 0", allocs)
	}
}

func TestSpans(t *testing.T) {
	r := New()
	root := r.StartSpan("run", nil)
	child := r.StartSpan("stage", root)
	child.SetAttr("index", "0")
	child.End()
	root.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Recorded in End order: child first.
	if spans[0].Name != "stage" || spans[1].Name != "run" {
		t.Errorf("span order: %v", spans)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Attrs["index"] != "0" {
		t.Errorf("attrs = %v", spans[0].Attrs)
	}
	if spans[0].End < spans[0].Start || spans[0].Duration() < 0 {
		t.Error("span times inverted")
	}
}

// TestWritePrometheusGolden pins the exact text exposition output so the
// export format cannot silently drift.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Counter(`micco_sim_bytes_total{channel="h2d"}`).Add(1024)
	r.Counter(`micco_sim_bytes_total{channel="p2p"}`).Add(512)
	r.Gauge("micco_run_gflops").Set(1.5)
	h := r.Histogram(`micco_sim_seconds{kind="kernel"}`, []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE micco_sim_bytes_total counter
micco_sim_bytes_total{channel="h2d"} 1024
micco_sim_bytes_total{channel="p2p"} 512
# TYPE micco_run_gflops gauge
micco_run_gflops 1.5
# TYPE micco_sim_seconds histogram
micco_sim_seconds_bucket{kind="kernel",le="0.001"} 1
micco_sim_seconds_bucket{kind="kernel",le="0.1"} 2
micco_sim_seconds_bucket{kind="kernel",le="+Inf"} 3
micco_sim_seconds_sum{kind="kernel"} 2.0505
micco_sim_seconds_count{kind="kernel"} 3
`
	if got := buf.String(); got != want {
		t.Errorf("prometheus output drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSnapshotJSONGolden pins the JSON snapshot shape.
func TestSnapshotJSONGolden(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(2)
	r.Gauge("b").Set(3)
	r.Histogram("c", []float64{1}).Observe(0.5)
	r.RecordDecision(&DecisionRecord{Stage: 0, Device: 1})
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"counters":{"a_total":2},"gauges":{"b":3},` +
		`"histograms":{"c":{"buckets":[{"le":1,"count":1},{"le":"+Inf","count":1}],"sum":0.5,"count":1}},` +
		`"decisions":1}`
	if string(raw) != want {
		t.Errorf("snapshot JSON drifted:\ngot  %s\nwant %s", raw, want)
	}
	// The snapshot round-trips, including the +Inf bucket bound.
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	bs := back.Histograms["c"].Buckets
	if len(bs) != 2 || !math.IsInf(bs[1].UpperBound, 1) || bs[0].UpperBound != 1 {
		t.Errorf("round-tripped buckets = %+v", bs)
	}
}

func TestWriteDecisionsNDJSON(t *testing.T) {
	recs := []DecisionRecord{
		{Stage: 0, Pair: 1, Out: 7, A: 1, B: 2, Device: 3, Pattern: TwoNew,
			BoundIndex: 2, BalanceNum: 4, Policy: PolicyComputeCentric,
			Candidates:     []CandidateScore{{Device: 3, Score: 0}},
			PredictedBytes: 100, ActualBytes: 100},
		{Stage: 1, Pair: 0, Out: 9, Pattern: TwoRepeatedSame, BoundIndex: -1},
	}
	var buf bytes.Buffer
	if err := WriteDecisionsNDJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("ndjson lines = %d, want 2", len(lines))
	}
	var back DecisionRecord
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Pattern != TwoNew || back.Device != 3 || back.Candidates[0].Device != 3 {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if !strings.Contains(lines[0], `"pattern":"twoNew"`) {
		t.Errorf("pattern should marshal by name: %s", lines[0])
	}
	// Numeric pattern form also parses.
	if err := json.Unmarshal([]byte(`{"pattern":1}`), &back); err != nil || back.Pattern != TwoRepeatedDiff {
		t.Errorf("numeric pattern parse: %v %v", back.Pattern, err)
	}
	if err := json.Unmarshal([]byte(`{"pattern":"bogus"}`), &back); err == nil {
		t.Error("unknown pattern name should error")
	}
}

func TestReusePatternStrings(t *testing.T) {
	want := map[ReusePattern]string{
		TwoRepeatedSame: "twoRepeatedSame", TwoRepeatedDiff: "twoRepeatedDiff",
		OneRepeated: "oneRepeated", TwoNew: "twoNew",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if ReusePattern(9).String() == "" {
		t.Error("unknown pattern should still print")
	}
}

// TestPolicyNames holds every policy code to the string the decision log
// wrote when the policy was a string — a record's "policy" key, left out
// for no policy — and parses each back; an unknown name is refused and
// quoted, with its line when it comes from a log.
func TestPolicyNames(t *testing.T) {
	want := map[Policy]string{
		PolicyNone: "", PolicyComputeCentric: "compute-centric", PolicyMemoryEviction: "memory-eviction",
		PolicyTwoLevel: "two-level", PolicyEarliestDevice: "earliest-device", PolicyRoundRobin: "round-robin",
		PolicyLocalityOnly: "locality-only",
	}
	if len(want) != int(numPolicies) {
		t.Fatalf("%d policies named here, %d defined", len(want), numPolicies)
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
		wantLine := `{"stage":0,"pair":0,"out":0,"a":0,"b":0,"device":0,"pattern":"twoRepeatedSame","bound_index":0,"balance_num":0,`
		if name != "" {
			wantLine += `"policy":"` + name + `",`
		}
		wantLine += `"predicted_bytes":0,"actual_bytes":0,"sim_time":0}` + "\n"
		var buf bytes.Buffer
		if err := WriteDecisionsNDJSON(&buf, []DecisionRecord{{Policy: p}}); err != nil || buf.String() != wantLine {
			t.Errorf("%q: the log writes %s (%v), want %s", name, buf.String(), err, wantLine)
		}
		back, err := ReadDecisionsNDJSON(&buf)
		if err != nil || len(back) != 1 || back[0].Policy != p {
			t.Errorf("%q read back as %+v, %v", name, back, err)
		}
	}
	if Policy(numPolicies).String() == "" {
		t.Error("an unknown code should still print")
	}
	for _, in := range []string{`"memory-centric"`, `"Compute-Centric"`, `"compute-centric "`, `3`} {
		var p Policy
		if err := json.Unmarshal([]byte(in), &p); err == nil || !strings.Contains(err.Error(), strings.Trim(in, `"`)) {
			t.Errorf("%s: parsed as %v, error %v; want an error quoting it", in, p, err)
		}
	}
	_, err := ReadDecisionsNDJSON(strings.NewReader("{\"stage\":1}\n{\"policy\":\"memory-centric\"}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), `"memory-centric"`) {
		t.Errorf("an unknown policy in a log: %v, want its line and name", err)
	}
}
