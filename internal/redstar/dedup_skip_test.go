package redstar

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"micco/internal/graph"
	"micco/internal/wick"
	"micco/internal/workload"
)

// referenceBuild is BuildPlan with the cross-spec Dedup run always. It
// returns the plan, the workload and how many graphs that pass removed.
func referenceBuild(c *Correlator) (*graph.Plan, *workload.Workload, int, error) {
	specs, err := c.specs()
	if err != nil {
		return nil, nil, 0, err
	}
	bt := wick.NewBlockTableWithRank(c.TensorDim, c.Batch, c.blockRank())
	var all []*graph.Graph
	var gid int
	for tm := 1; tm <= c.TimeSlices; tm++ {
		for _, spec := range specs {
			gs, err := wick.Expand(spec, 0, tm, bt, &gid)
			if err != nil {
				return nil, nil, 0, err
			}
			all = append(all, gs...)
		}
	}
	unique := graph.Dedup(all)
	plan, err := graph.BuildPlan(unique, bt.NextID())
	if err != nil {
		return nil, nil, 0, err
	}
	stages := make([][]workload.Pair, len(plan.StageOps))
	for si, ops := range plan.StageOps {
		for _, oi := range ops {
			op := plan.Ops[oi]
			stages[si] = append(stages[si], workload.Pair{A: op.A, B: op.B, Out: op.Out})
		}
	}
	w, err := workload.FromStages(c.Name, stages, plan.Inputs)
	return plan, w, len(all) - len(unique), err
}

// checkAgainstAlwaysDedup requires BuildPlan's error, or its plan and
// workload, to be those of the reference, and returns how many graphs the
// reference's cross-spec pass removed.
func checkAgainstAlwaysDedup(t *testing.T, label string, c *Correlator) int {
	t.Helper()
	b, err := c.BuildPlan()
	plan, w, removed, refErr := referenceBuild(c)
	if err != nil || refErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: error %v, reference %v", label, err, refErr)
		}
		return removed
	}
	if b.NumGraphs != len(plan.Finals) {
		t.Errorf("%s: %d graphs, reference %d", label, b.NumGraphs, len(plan.Finals))
	}
	if !reflect.DeepEqual(b.Plan, plan) {
		t.Errorf("%s: plan differs from the always-dedup reference (%d ops, reference %d)",
			label, len(b.Plan.Ops), len(plan.Ops))
	}
	if !reflect.DeepEqual(b.Workload, w) {
		t.Errorf("%s: workload differs from the always-dedup reference", label)
	}
	return removed
}

// TestCrossSpecDedupSkip: BuildPlan runs the cross-spec Dedup only when two
// specs have the same operator names on each side, and its result is
// exactly that of running the pass always — on bases where the pass
// removes graphs, on randomly drawn small bases, and on the bundled ones,
// where it is skipped.
func TestCrossSpecDedupSkip(t *testing.T) {
	pi0 := wick.Operator{Name: "pi0", Quarks: []wick.Quark{wick.Q("u"), wick.Qbar("u"), wick.Q("d"), wick.Qbar("d")}}
	rho := wick.Meson("rho", "u", "d")
	basis := func(cons ...Construction) *Correlator {
		return &Correlator{Name: "basis", Constructions: cons, Momenta: 2, TimeSlices: 3, TensorDim: 4, Batch: 1}
	}
	for _, tc := range []struct {
		name string
		c    *Correlator
	}{
		{"one operator list under two names", basis(
			Construction{Name: "a1", Ops: []wick.Operator{wick.Meson("a1", "u", "d")}},
			Construction{Name: "rhopi", Ops: []wick.Operator{rho, pi0}},
			Construction{Name: "rhopi-again", Ops: []wick.Operator{rho, pi0}})},
		{"permuted operator lists", basis(
			Construction{Name: "rhopi", Ops: []wick.Operator{rho, pi0}},
			Construction{Name: "pirho", Ops: []wick.Operator{pi0, rho}})},
	} {
		if removed := checkAgainstAlwaysDedup(t, tc.name, tc.c); removed == 0 {
			t.Errorf("%s: the cross-spec pass removed nothing, so the case tests nothing", tc.name)
		}
	}

	// Flavor-neutral pieces, so that any list of them balances any other.
	pieces := [][]wick.Operator{
		{wick.Meson("eta", "u", "u")},
		{wick.Meson("rho0", "d", "d")},
		{wick.Meson("phi", "s", "s")},
		{wick.Meson("pi+", "u", "d"), wick.Meson("pi-", "d", "u")},
	}
	rng := rand.New(rand.NewSource(30))
	var removing, skipped int
	for i := 0; i < 24; i++ {
		c := &Correlator{Name: fmt.Sprintf("random%d", i),
			Momenta: 1 + rng.Intn(2), TimeSlices: 1 + rng.Intn(2), TensorDim: 4, Batch: 1}
		for k := 2 + rng.Intn(3); k > 0; k-- {
			var ops []wick.Operator
			for n := 1 + rng.Intn(2); n > 0; n-- {
				ops = append(ops, pieces[rng.Intn(len(pieces))]...)
			}
			rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			c.Constructions = append(c.Constructions, Construction{Name: fmt.Sprintf("c%d", k), Ops: ops})
		}
		if checkAgainstAlwaysDedup(t, c.Name, c) > 0 {
			removing++
		}
		if specs, err := c.specs(); err == nil && !namesRepeat(specs) {
			skipped++
		}
	}
	t.Logf("random bases: %d where the pass removes graphs, %d where it is skipped", removing, skipped)
	if removing == 0 || skipped == 0 {
		t.Error("the random bases do not exercise both the pass and the skip")
	}

	for _, c := range Bundled() {
		specs, err := c.specs()
		if err != nil {
			t.Fatal(err)
		}
		if namesRepeat(specs) {
			t.Errorf("%s: no two constructions share their operators, yet the pass runs", c.Name)
		}
		c.TimeSlices = 2
		checkAgainstAlwaysDedup(t, c.Name, c)
	}
}
