package redstar

import (
	"context"
	"math/cmplx"
	"strings"
	"testing"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/wick"
)

// tiny returns a small correlator for fast tests.
func tiny() *Correlator {
	c := A1RhoPi()
	c.TimeSlices = 3
	c.Momenta = 2
	c.TensorDim = 12
	c.Batch = 2
	return c
}

func TestBundledValidate(t *testing.T) {
	for _, c := range Bundled() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if len(Bundled()) != 3 {
		t.Error("want the three Table VI correlators")
	}
	names := map[string]int{}
	for _, c := range Bundled() {
		names[c.Name] = c.TensorDim
	}
	if names["al_rhopi"] != 128 || names["f0d2"] != 256 || names["f0d4"] != 256 {
		t.Errorf("tensor sizes do not match Table VI: %v", names)
	}
	for _, c := range Bundled() {
		if c.TimeSlices != 16 {
			t.Errorf("%s: TimeSlices = %d, want 16", c.Name, c.TimeSlices)
		}
	}
}

func TestValidateRejectsBadCorrelator(t *testing.T) {
	bad := &Correlator{Name: "empty", TimeSlices: 4}
	if err := bad.Validate(); err == nil {
		t.Error("empty correlator: want error")
	}
	noTime := tiny()
	noTime.TimeSlices = 0
	if err := noTime.Validate(); err == nil {
		t.Error("zero time slices: want error")
	}
	// A construction always balances against its own conjugate, but two
	// constructions with different net flavor cannot correlate.
	unbalanced := &Correlator{
		Name: "bad",
		Constructions: []Construction{
			{Name: "x", Ops: []wick.Operator{{Name: "x", Quarks: []wick.Quark{wick.Q("u")}}}},
			{Name: "y", Ops: []wick.Operator{{Name: "y", Quarks: []wick.Quark{wick.Q("d")}}}},
		},
		Momenta: 1, TimeSlices: 2, TensorDim: 4, Batch: 1,
	}
	if err := unbalanced.Validate(); err == nil {
		t.Error("flavor-unbalanced construction: want error")
	}
	if _, err := unbalanced.BuildPlan(); err == nil {
		t.Error("BuildPlan on invalid correlator: want error")
	}
}

// TestValidateOperatorNames: a hadron block is keyed by operator name, so
// one name with two quark contents would alias two hadrons to one tensor.
func TestValidateOperatorNames(t *testing.T) {
	// Every operator is flavor-neutral, so each basis balances and only the
	// naming can be at fault.
	basis := func(second wick.Operator) *Correlator {
		return &Correlator{
			Name: "names",
			Constructions: []Construction{
				{Name: "one", Ops: []wick.Operator{wick.Meson("eta", "u", "u")}},
				{Name: "two", Ops: []wick.Operator{wick.Meson("rho0", "d", "d"), second}},
			},
			Momenta: 1, TimeSlices: 2, TensorDim: 4, Batch: 1,
		}
	}
	cases := []struct {
		name   string
		second wick.Operator
		ok     bool
	}{
		{"same name, same content", wick.Meson("eta", "u", "u"), true},
		{"another name", wick.Meson("eta'", "d", "d"), true},
		{"same name, other flavor", wick.Meson("eta", "d", "d"), false},
		{"same name, antiquark first", wick.Operator{Name: "eta", Quarks: []wick.Quark{wick.Qbar("u"), wick.Q("u")}}, false},
		{"same name, more quarks", wick.Operator{Name: "eta", Quarks: []wick.Quark{
			wick.Q("u"), wick.Qbar("u"), wick.Q("d"), wick.Qbar("d")}}, false},
	}
	for _, tc := range cases {
		err := basis(tc.second).Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range []string{`"eta"`, "one", "two"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, want)
			}
		}
		if _, err := basis(tc.second).BuildPlan(); err == nil {
			t.Errorf("%s: BuildPlan accepted", tc.name)
		}
	}
}

func TestConjugate(t *testing.T) {
	op := wick.Meson("pi", "u", "d")
	c := conjugate(op)
	if c.Name != "pi†" {
		t.Errorf("name = %q", c.Name)
	}
	if c.Quarks[0].Bar != true || c.Quarks[0].Flavor != "u" {
		t.Error("quark not conjugated")
	}
	if c.Quarks[1].Bar != false || c.Quarks[1].Flavor != "d" {
		t.Error("antiquark not conjugated")
	}
}

func TestBuildPlanStructure(t *testing.T) {
	b, err := tiny().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGraphs == 0 || b.Blocks == 0 || len(b.Plan.Ops) == 0 {
		t.Fatalf("degenerate build: graphs=%d blocks=%d ops=%d",
			b.NumGraphs, b.Blocks, len(b.Plan.Ops))
	}
	if len(b.Workload.Stages) != b.Plan.NumStages() {
		t.Errorf("workload stages %d != plan stages %d",
			len(b.Workload.Stages), b.Plan.NumStages())
	}
	// Each sink time must conclude at least one graph.
	for ts := 1; ts <= 3; ts++ {
		if len(b.FinalsByTime[ts]) == 0 {
			t.Errorf("no finals for sink time %d", ts)
		}
	}
	// Shared hadron blocks must induce real reuse: the source blocks are
	// shared across all sink times, so distinct blocks must number fewer
	// than graph-count times nodes-per-graph.
	if b.Plan.SharedOps == 0 {
		t.Error("expected shared ops across construction pairs")
	}
	// Stage repeat rates nonzero from stage 1 on at least once.
	anyRepeat := false
	for _, st := range b.Workload.Stages {
		if st.RepeatRate > 0 {
			anyRepeat = true
		}
	}
	if !anyRepeat {
		t.Error("expected repeated tensors in the correlator workload")
	}
}

func TestBuildDeterminism(t *testing.T) {
	b1, err := tiny().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tiny().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if b1.NumGraphs != b2.NumGraphs || len(b1.Plan.Ops) != len(b2.Plan.Ops) {
		t.Fatal("nondeterministic build")
	}
	for i := range b1.Plan.Ops {
		if b1.Plan.Ops[i] != b2.Plan.Ops[i] {
			t.Fatal("op streams differ")
		}
	}
}

func TestSchedulersRunCorrelatorWorkload(t *testing.T) {
	b, err := tiny().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.MI100(4)
	cfg.MemoryBytes = b.Plan.TotalUniqueBytes() / 3 // force some eviction
	if min := 3 * b.Plan.Inputs[0].Bytes(); cfg.MemoryBytes < min {
		cfg.MemoryBytes = min
	}
	cluster, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := sched.Run(context.Background(), b.Workload, baseline.NewGroute(), cluster, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := sched.Run(context.Background(), b.Workload, core.NewNaive(), cluster, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gr.GFLOPS <= 0 || mc.GFLOPS <= 0 {
		t.Fatal("degenerate correlator runs")
	}
	if mc.Total.ReuseHits <= gr.Total.ReuseHits {
		t.Errorf("MICCO reuse hits %d should exceed Groute %d on correlator data",
			mc.Total.ReuseHits, gr.Total.ReuseHits)
	}
}

func TestEvaluateNumericSchedulerIndependence(t *testing.T) {
	c := tiny()
	c.TimeSlices = 2
	b, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := b.EvaluateNumeric(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 2 {
		t.Fatalf("correlator times = %d, want 2", len(corr))
	}
	for ts, v := range corr {
		if cmplx.Abs(v) == 0 {
			t.Errorf("correlator at t=%d is exactly zero", ts)
		}
	}
	// Determinism of the numeric evaluation.
	corr2, err := b.EvaluateNumeric(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ts := range corr {
		if corr[ts] != corr2[ts] {
			t.Errorf("numeric evaluation not deterministic at t=%d", ts)
		}
	}
	// Different seed changes values.
	corr3, err := b.EvaluateNumeric(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for ts := range corr {
		if corr[ts] != corr3[ts] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should change the correlator values")
	}
}

func TestF0BasesGrow(t *testing.T) {
	if len(F0D4().Constructions) <= len(F0D2().Constructions) {
		t.Error("f0d4 basis should extend f0d2")
	}
}

// nucleon is a proton-like three-quark (uud) operator.
var nucleon = wick.Operator{Name: "N", Quarks: []wick.Quark{wick.Q("u"), wick.Q("u"), wick.Q("d")}}

// nucleonCorrelator is a baryon-system correlator: a proton-like (uud)
// operator against its conjugate, with rank-3 hadron blocks.
func nucleonCorrelator() *Correlator {
	return &Correlator{
		Name: "nucleon2pt",
		Constructions: []Construction{
			{Name: "N", Ops: []wick.Operator{nucleon}},
		},
		Momenta:    2,
		TimeSlices: 3,
		TensorDim:  10,
		Batch:      2,
		Rank:       tensor.RankBaryon,
	}
}

func TestBaryonCorrelatorBuildsAndRuns(t *testing.T) {
	c := nucleonCorrelator()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGraphs == 0 {
		t.Fatal("no baryon graphs")
	}
	for _, d := range b.Plan.Inputs {
		if d.Rank != tensor.RankBaryon {
			t.Fatalf("block %v should be rank 3", d)
		}
	}
	// Baryon contraction FLOPs scale as D^4, not D^3.
	op := b.Plan.Ops[0]
	flops, err := tensor.ContractFLOPs(op.A, op.B)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(c.Batch) * 8 * int64(c.TensorDim) * int64(c.TensorDim) *
		int64(c.TensorDim) * int64(c.TensorDim)
	if flops != want {
		t.Errorf("baryon op FLOPs = %d, want %d", flops, want)
	}
	// The workload schedules like any other.
	cluster, err := gpusim.NewCluster(gpusim.MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(context.Background(), b.Workload, core.NewNaive(), cluster, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 {
		t.Error("baryon workload produced no throughput")
	}
	// And evaluates numerically through the rank-3 kernel and trace.
	corr, err := b.EvaluateNumeric(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != c.TimeSlices {
		t.Errorf("correlator times = %d, want %d", len(corr), c.TimeSlices)
	}
	for ts, v := range corr {
		if v == 0 {
			t.Errorf("baryon correlator zero at t=%d", ts)
		}
	}
}

func TestMixedRankConstructionsRejected(t *testing.T) {
	// A single correlator must not mix meson and baryon blocks: shapes
	// would be incompatible inside one contraction graph. The block table
	// enforces a single rank, so validate a mixed basis still builds
	// (all blocks take the correlator's rank) but stays shape-consistent.
	c := nucleonCorrelator()
	c.Constructions = append(c.Constructions, Construction{
		Name: "Npi", Ops: []wick.Operator{
			nucleon,
			{Name: "pi0", Quarks: []wick.Quark{wick.Q("u"), wick.Qbar("u")}},
		},
	})
	b, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range b.Plan.Inputs {
		if d.Rank != tensor.RankBaryon {
			t.Fatalf("mixed basis produced rank-%d block", d.Rank)
		}
	}
}
