package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"micco/internal/tensor"
)

func td(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
}

// chainGraph builds a path graph over the given tensor IDs.
func chainGraph(id int, ids ...uint64) *Graph {
	g := &Graph{ID: id}
	for i, tid := range ids {
		g.Nodes = append(g.Nodes, Node{ID: i, Tensor: td(tid)})
	}
	for i := 0; i+1 < len(ids); i++ {
		g.Edges = append(g.Edges, Edge{U: i, V: i + 1})
	}
	return g
}

func TestValidate(t *testing.T) {
	g := chainGraph(0, 1, 2, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Graph{
		{ID: 1},
		{ID: 2, Nodes: []Node{{ID: 5, Tensor: td(1)}}},
		{ID: 3, Nodes: []Node{{ID: 0, Tensor: tensor.Desc{}}}},
		{ID: 4, Nodes: []Node{{ID: 0, Tensor: td(1)}}, Edges: []Edge{{U: 0, V: 3}}},
		{ID: 5, Nodes: []Node{{ID: 0, Tensor: td(1)}}, Edges: []Edge{{U: 0, V: 0}}},
		{ID: 6, Nodes: []Node{
			{ID: 0, Tensor: td(1)},
			{ID: 1, Tensor: tensor.Desc{ID: 2, Rank: tensor.RankMeson, Dim: 99, Batch: 1}},
		}},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("graph %d should fail validation", g.ID)
		}
	}
}

func TestConnected(t *testing.T) {
	g := chainGraph(0, 1, 2, 3, 4)
	if !g.Connected() {
		t.Error("chain should be connected")
	}
	g.Edges = g.Edges[:1] // 0-1 only; 2, 3 isolated
	if g.Connected() {
		t.Error("broken chain should not be connected")
	}
	if (&Graph{}).Connected() {
		t.Error("empty graph is not connected")
	}
}

func TestSignatureAndDedup(t *testing.T) {
	g1 := chainGraph(0, 1, 2, 3)
	// Same tensors and edges, nodes listed in a different order.
	g2 := &Graph{ID: 1, Nodes: []Node{
		{ID: 0, Tensor: td(3)}, {ID: 1, Tensor: td(2)}, {ID: 2, Tensor: td(1)},
	}, Edges: []Edge{{U: 0, V: 1}, {U: 1, V: 2}}}
	if g1.Signature() != g2.Signature() {
		t.Error("relabeled graphs should share a signature")
	}
	g3 := chainGraph(2, 1, 2, 4)
	if g1.Signature() == g3.Signature() {
		t.Error("different tensors should change the signature")
	}
	out := Dedup([]*Graph{g1, g2, g3, g1})
	if len(out) != 2 {
		t.Errorf("Dedup kept %d graphs, want 2", len(out))
	}
	if out[0] != g1 || out[1] != g3 {
		t.Error("Dedup should preserve first-seen order")
	}
}

func TestBuildPlanChain(t *testing.T) {
	g := chainGraph(0, 1, 2, 3, 4)
	p, err := BuildPlan([]*Graph{g}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 4 nodes -> 3 contractions.
	if len(p.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(p.Ops))
	}
	if len(p.Inputs) != 4 {
		t.Errorf("inputs = %d, want 4", len(p.Inputs))
	}
	// Balanced matching contracts (1,2) and (3,4) concurrently, then the
	// two products: 2 stages.
	if p.NumStages() != 2 {
		t.Errorf("stages = %d, want 2", p.NumStages())
	}
	if len(p.Stages[0]) != 2 || len(p.Stages[1]) != 1 {
		t.Errorf("stage widths = %d, %d", len(p.Stages[0]), len(p.Stages[1]))
	}
	if len(p.Finals) != 1 || !p.Finals[0].Valid() {
		t.Fatalf("finals %v, want one valid tensor", p.Finals)
	}
	final := p.Finals[0]
	if final.ID < 100 {
		t.Errorf("final %v should be an intermediate", final)
	}
	if p.SharedOps != 0 {
		t.Errorf("SharedOps = %d, want 0", p.SharedOps)
	}
}

func TestBuildPlanSharesAcrossGraphs(t *testing.T) {
	// Two identical graphs (same tensors) must plan each contraction once.
	g1 := chainGraph(0, 1, 2, 3)
	g2 := chainGraph(1, 1, 2, 3)
	p, err := BuildPlan([]*Graph{g1, g2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 2 {
		t.Errorf("ops = %d, want 2 (fully shared)", len(p.Ops))
	}
	if p.SharedOps != 2 {
		t.Errorf("SharedOps = %d, want 2", p.SharedOps)
	}
	if p.Finals[0] != p.Finals[1] {
		t.Error("identical graphs should share their final tensor")
	}
	// A graph sharing only one leaf pair reuses just that op.
	g3 := chainGraph(2, 1, 2, 9)
	p2, err := BuildPlan([]*Graph{g1, g3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p2.SharedOps != 1 {
		t.Errorf("SharedOps = %d, want 1", p2.SharedOps)
	}
}

func TestBuildPlanStagesRespectDependencies(t *testing.T) {
	g := chainGraph(0, 1, 2, 3, 4, 5, 6, 7, 8)
	p, err := BuildPlan([]*Graph{g}, 100)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(map[uint64]int) // tensor -> stage produced (inputs: -1)
	for _, in := range p.Inputs {
		produced[in.ID] = -1
	}
	for s, st := range p.Stages {
		for _, op := range st {
			produced[op.Out.ID] = s
		}
	}
	for s, st := range p.Stages {
		for _, op := range st {
			for _, operand := range []tensor.Desc{op.A, op.B} {
				ps, ok := produced[operand.ID]
				if !ok {
					t.Fatalf("operand t%d never produced", operand.ID)
				}
				if ps >= s {
					t.Errorf("op at stage %d uses t%d produced at stage %d", s, operand.ID, ps)
				}
			}
		}
	}
	// 8 nodes -> 7 ops over 3 balanced stages (4 + 2 + 1).
	if len(p.Ops) != 7 || p.NumStages() != 3 {
		t.Errorf("ops=%d stages=%d, want 7 ops in 3 stages", len(p.Ops), p.NumStages())
	}
}

func TestBuildPlanCycleAndMultiEdge(t *testing.T) {
	// Triangle: 3 nodes, 3 edges. Contracting one edge merges two nodes;
	// the two remaining edges collapse (one becomes parallel, one closes
	// the pair), leaving one contraction.
	g := &Graph{ID: 0, Nodes: []Node{
		{ID: 0, Tensor: td(1)}, {ID: 1, Tensor: td(2)}, {ID: 2, Tensor: td(3)},
	}, Edges: []Edge{{0, 1}, {1, 2}, {0, 2}}}
	p, err := BuildPlan([]*Graph{g}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 2 {
		t.Errorf("triangle ops = %d, want 2", len(p.Ops))
	}
	if !p.Finals[0].Valid() {
		t.Error("triangle should reduce to a final tensor")
	}
}

// TestBuildPlanErrors: every graph set BuildPlan refuses — an invalid or
// disconnected graph, a leaf at or past nextID, IDs that would overflow 32
// bits, a leaf ID naming two descriptors — is refused with an error wrapping
// ErrInvalidPlan.
func TestBuildPlanErrors(t *testing.T) {
	disconnected := &Graph{ID: 0, Nodes: []Node{
		{ID: 0, Tensor: td(1)}, {ID: 1, Tensor: td(2)},
	}}
	cases := []struct {
		name   string
		graphs []*Graph
		nextID uint64
	}{
		{"disconnected graph", []*Graph{disconnected}, 100},
		{"invalid tensor", []*Graph{{ID: 1, Nodes: []Node{{ID: 0, Tensor: tensor.Desc{}}}}}, 100},
		{"no nodes", []*Graph{{ID: 2}}, 100},
		{"edge out of range", []*Graph{{ID: 3, Nodes: []Node{{ID: 0, Tensor: td(1)}}, Edges: []Edge{{U: 0, V: 1}}}}, 100},
		{"leaf ID above nextID", []*Graph{chainGraph(0, 1, 200)}, 100},
		{"leaf ID at nextID", []*Graph{chainGraph(0, 1, 100)}, 100},
		{"valid graph after an invalid one", []*Graph{chainGraph(0, 1, 2), disconnected}, 100},
		{"32-bit overflow", []*Graph{chainGraph(0, 1, 2, 3)}, 1<<32 - 2},
		{"nextID past 32 bits", []*Graph{chainGraph(0, 1, 2)}, 1<<64 - 1},
		{"leaf ID past 32 bits", []*Graph{chainGraph(0, 1, 1<<32)}, 100},
		{"one leaf ID, two shapes", []*Graph{chainGraph(0, 1, 2), {ID: 1,
			Nodes: []Node{{ID: 0, Tensor: tensor.Desc{ID: 2, Rank: tensor.RankMeson, Dim: 4, Batch: 1}},
				{ID: 1, Tensor: tensor.Desc{ID: 3, Rank: tensor.RankMeson, Dim: 4, Batch: 1}}},
			Edges: []Edge{{U: 0, V: 1}}}}, 100},
	}
	for _, c := range cases {
		p, err := BuildPlan(c.graphs, c.nextID)
		if !errors.Is(err, ErrInvalidPlan) || p != nil {
			t.Errorf("%s: plan %v, error %v; want an error wrapping ErrInvalidPlan", c.name, p, err)
		}
	}
}

func TestPlanAccounting(t *testing.T) {
	g := chainGraph(0, 1, 2, 3)
	p, err := BuildPlan([]*Graph{g}, 100)
	if err != nil {
		t.Fatal(err)
	}
	perOp, _ := tensor.ContractFLOPs(td(1), td(2))
	if got := p.TotalFLOPs(); got != perOp*int64(len(p.Ops)) {
		t.Errorf("TotalFLOPs = %d", got)
	}
	per := td(0).Bytes()
	want := per * int64(len(p.Inputs)+len(p.Ops))
	if got := p.TotalUniqueBytes(); got != want {
		t.Errorf("TotalUniqueBytes = %d, want %d", got, want)
	}
}

// Single-edge graph: one contraction, final is its output.
func TestBuildPlanMinimal(t *testing.T) {
	g := chainGraph(0, 7, 9)
	p, err := BuildPlan([]*Graph{g}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 1 || p.NumStages() != 1 {
		t.Errorf("ops=%d stages=%d", len(p.Ops), p.NumStages())
	}
	if p.Finals[0].ID != p.Ops[0].Out.ID {
		t.Error("final should be the single op's output")
	}
	// Canonical operand order: lower ID first.
	if p.Ops[0].A.ID != 7 || p.Ops[0].B.ID != 9 {
		t.Errorf("operands = (%d,%d), want (7,9)", p.Ops[0].A.ID, p.Ops[0].B.ID)
	}
}

// randomConnectedGraph builds a random spanning tree over n nodes plus a
// few extra edges, with tensor IDs drawn from a small pool to create
// sharing across graphs.
func randomConnectedGraph(rng *rand.Rand, id, n, pool int) *Graph {
	g := &Graph{ID: id}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, Node{ID: i, Tensor: td(uint64(1 + rng.Intn(pool)))})
	}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, Edge{U: rng.Intn(i), V: i})
	}
	extra := rng.Intn(3)
	for e := 0; e < extra && n > 1; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.Edges = append(g.Edges, Edge{U: u, V: v})
		}
	}
	return g
}

// Property: plans over random connected graphs always respect dependencies,
// produce a valid final per graph, and never emit duplicate output IDs.
func TestBuildPlanPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var gs []*Graph
		numGraphs := 1 + rng.Intn(6)
		for i := 0; i < numGraphs; i++ {
			gs = append(gs, randomConnectedGraph(rng, i, 2+rng.Intn(7), 12))
		}
		p, err := BuildPlan(gs, 1000)
		if err != nil {
			return false
		}
		produced := map[uint64]int{}
		for _, in := range p.Inputs {
			produced[in.ID] = -1
		}
		seen := map[uint64]bool{}
		count := 0
		for s, st := range p.Stages {
			// Stage s is the next run of Ops, and StageOps indexes it.
			if len(st) == 0 || &st[0] != &p.Ops[count] || len(p.StageOps[s]) != len(st) || p.StageOps[s][0] != count {
				return false
			}
			count += len(st)
			for _, op := range st {
				if seen[op.Out.ID] {
					return false // duplicate output
				}
				seen[op.Out.ID] = true
				for _, operand := range []struct{ id uint64 }{{op.A.ID}, {op.B.ID}} {
					ps, ok := produced[operand.id]
					if !ok || ps >= s {
						return false
					}
				}
				produced[op.Out.ID] = s
			}
		}
		if count != len(p.Ops) {
			return false // the stages do not cover every op
		}
		if len(p.Finals) != len(gs) {
			return false
		}
		for _, final := range p.Finals {
			if !final.Valid() {
				return false
			}
			if _, known := produced[final.ID]; !known {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Error(err)
	}
}

// Property: planning the same graphs twice in one plan adds no new ops.
func TestBuildPlanIdempotentSharing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1 := randomConnectedGraph(rng, 0, 2+rng.Intn(6), 10)
		g2 := &Graph{ID: 1, Nodes: g1.Nodes, Edges: g1.Edges}
		p1, err := BuildPlan([]*Graph{g1}, 1000)
		if err != nil {
			return false
		}
		p2, err := BuildPlan([]*Graph{g1, g2}, 1000)
		if err != nil {
			return false
		}
		return len(p1.Ops) == len(p2.Ops) && p2.Finals[0] == p2.Finals[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(62))}); err != nil {
		t.Error(err)
	}
}
