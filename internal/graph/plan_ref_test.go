package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"micco/internal/tensor"
)

// This file keeps the planner as it was before it streamed: ops kept in
// creation order with their stage, a StageOps index over them and
// intermediates numbered from nextID as they were made. It is the oracle
// TestPlannerMatchesReference holds Planner to.

// refPlan is the staged, deduplicated execution plan for a set of contraction
// graphs. Identical contractions (same ordered operand tensor IDs) across
// graphs are performed once and their outputs shared.
type refPlan struct {
	Ops []refOp
	// StageOps indexes Ops by stage.
	StageOps [][]int
	// Inputs are the distinct leaf hadron-node tensors.
	Inputs []tensor.Desc
	// Finals[i] is the tensor concluding the contraction of graphs[i] of
	// the referenceBuildPlan call (the correlator term before the trace).
	Finals []tensor.Desc
	// SharedOps counts how many per-graph contractions were satisfied by
	// an already-planned op (the cross-graph reuse the paper highlights).
	SharedOps int
}

// refOp is one hadron contraction in an execution plan: Out = A contracted
// with B, runnable in stage Stage (0-based) once both operands exist.
type refOp struct {
	A, B, Out tensor.Desc
	Stage     int
}

// refPlanner carries the cross-graph memoization state and the scratch
// buffers reduce reuses from graph to graph.
type refPlanner struct {
	plan *refPlan
	memo map[uint64]int // ordered operand IDs, a.ID<<32 | b.ID -> index of the op
	// input[id] says leaf id is in Inputs already; leaf IDs are below
	// firstID.
	input []bool
	// firstID is the ID of Ops[0].Out; intermediates are numbered from it
	// in op order, so a tensor's stage is read off the op that made it.
	firstID, nextID uint64

	tensors     []tensor.Desc
	edges, next []Edge
	matched     []bool
}

// referenceBuildPlan compiles graphs into a staged plan. Fresh intermediate tensor
// IDs are allocated starting at nextID (which must exceed every leaf
// tensor ID; the planner keeps one flag per ID below it, so it should sit
// just past the leaves, as wick's BlockTable.NextID does). Every tensor ID
// of the plan, intermediates included, must fit in 32 bits. Every graph
// must be valid and connected. Every refusal wraps ErrInvalidPlan.
func referenceBuildPlan(graphs []*Graph, nextID uint64) (*refPlan, error) {
	// A graph of n nodes adds at most n-1 ops; sharing only lowers that.
	maxOps := 0
	for _, g := range graphs {
		maxOps += max(len(g.Nodes)-1, 0)
	}
	if uint64(maxOps) >= 1<<32 || nextID >= 1<<32-uint64(maxOps) {
		return nil, fmt.Errorf("graph: %w: nextID %d and up to %d intermediates overflow 32-bit tensor IDs",
			ErrInvalidPlan, nextID, maxOps)
	}
	p := &refPlanner{
		plan:    &refPlan{Finals: make([]tensor.Desc, len(graphs)), Ops: make([]refOp, 0, maxOps)},
		memo:    make(map[uint64]int, maxOps),
		input:   make([]bool, nextID),
		firstID: nextID,
		nextID:  nextID,
	}
	for gi, g := range graphs {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("graph: %w: %w", ErrInvalidPlan, err)
		}
		if !g.Connected() {
			return nil, fmt.Errorf("graph: %w: graph %d: not connected", ErrInvalidPlan, g.ID)
		}
		for _, n := range g.Nodes {
			if n.Tensor.ID >= nextID {
				return nil, fmt.Errorf("graph: %w: graph %d: leaf tensor ID %d >= nextID %d",
					ErrInvalidPlan, g.ID, n.Tensor.ID, nextID)
			}
			if !p.input[n.Tensor.ID] {
				p.input[n.Tensor.ID] = true
				p.plan.Inputs = append(p.plan.Inputs, n.Tensor)
			}
		}
		final, err := p.reduce(g)
		if err != nil {
			return nil, fmt.Errorf("graph: %w: %w", ErrInvalidPlan, err)
		}
		p.plan.Finals[gi] = final
	}
	// Index ops by stage: count, carve one backing array, fill.
	var perStage []int
	for _, op := range p.plan.Ops {
		for op.Stage >= len(perStage) {
			perStage = append(perStage, 0)
		}
		perStage[op.Stage]++
	}
	p.plan.StageOps = make([][]int, len(perStage))
	index := make([]int, len(p.plan.Ops))
	for s, n := range perStage {
		p.plan.StageOps[s], index = index[:0:n], index[n:]
	}
	for i, op := range p.plan.Ops {
		p.plan.StageOps[op.Stage] = append(p.plan.StageOps[op.Stage], i)
	}
	return p.plan, nil
}

// reduce contracts graph g to a single node via rounds of maximal matching
// (independent edges contract concurrently), memoizing each contraction.
func (p *refPlanner) reduce(g *Graph) (tensor.Desc, error) {
	// live tensors per node; merged nodes alias a representative.
	tensors := p.tensors[:0]
	for _, n := range g.Nodes {
		tensors = append(tensors, n.Tensor)
	}
	p.tensors = tensors
	edges := append(p.edges[:0], g.Edges...)
	nextEdges := p.next[:0]
	if cap(p.matched) < len(g.Nodes) {
		p.matched = make([]bool, len(g.Nodes))
	}
	matched := p.matched[:len(g.Nodes)]
	alive := len(g.Nodes)
	for alive > 1 {
		if len(edges) == 0 {
			return tensor.Desc{}, fmt.Errorf("graph %d: ran out of edges with %d nodes left", g.ID, alive)
		}
		clear(matched)
		contractedAny := false
		nextEdges = nextEdges[:0]
		for _, e := range edges {
			if e.U == e.V {
				continue // self-loop created by an earlier merge this round
			}
			if matched[e.U] || matched[e.V] {
				nextEdges = append(nextEdges, e)
				continue
			}
			matched[e.U], matched[e.V] = true, true
			contractedAny = true
			out, err := p.emit(tensors[e.U], tensors[e.V])
			if err != nil {
				return tensor.Desc{}, fmt.Errorf("graph %d: %w", g.ID, err)
			}
			// Merge V into U: U carries the product tensor.
			tensors[e.U] = out
			tensors[e.V] = tensor.Desc{}
			alive--
			// Retarget V's remaining edges to U below via the rename map.
			for i := range nextEdges {
				if nextEdges[i].U == e.V {
					nextEdges[i].U = e.U
				}
				if nextEdges[i].V == e.V {
					nextEdges[i].V = e.U
				}
			}
			// Also rename in the not-yet-scanned portion by deferring: we
			// handle it when moving remaining edges to nextEdges.
			for j := range edges {
				if edges[j].U == e.V {
					edges[j].U = e.U
				}
				if edges[j].V == e.V {
					edges[j].V = e.U
				}
			}
		}
		if !contractedAny {
			return tensor.Desc{}, fmt.Errorf("graph %d: no contractible edge among %d", g.ID, len(edges))
		}
		// Drop self-loops produced by merges; the survivors are the next
		// round's edges and this round's buffer becomes its scratch.
		kept := nextEdges[:0]
		for _, e := range nextEdges {
			if e.U != e.V {
				kept = append(kept, e)
			}
		}
		edges, nextEdges = kept, edges
	}
	p.edges, p.next = edges, nextEdges
	for _, t := range tensors {
		if t.Valid() {
			return t, nil
		}
	}
	return tensor.Desc{}, fmt.Errorf("graph %d: no final tensor", g.ID)
}

// stageOf returns the earliest stage in which tensor id exists as an
// operand: 0 for a leaf, one past its producing op's stage otherwise.
func (p *refPlanner) stageOf(id uint64) int {
	if id < p.firstID {
		return 0
	}
	return p.plan.Ops[id-p.firstID].Stage + 1
}

// emit returns the output of contracting a with b, reusing a planned op
// when the same ordered contraction was already emitted. Operands are
// canonically ordered by tensor ID (contraction order is a convention of
// the plan, applied consistently).
func (p *refPlanner) emit(a, b tensor.Desc) (tensor.Desc, error) {
	if a.ID > b.ID {
		a, b = b, a
	}
	key := a.ID<<32 | b.ID // BuildPlan holds every ID below 1<<32
	if i, ok := p.memo[key]; ok {
		p.plan.SharedOps++
		return p.plan.Ops[i].Out, nil
	}
	stage := max(p.stageOf(a.ID), p.stageOf(b.ID))
	out, err := tensor.ContractOut(a, b, p.nextID)
	if err != nil {
		return tensor.Desc{}, err
	}
	p.nextID++
	p.memo[key] = len(p.plan.Ops)
	p.plan.Ops = append(p.plan.Ops, refOp{A: a, B: b, Out: out, Stage: stage})
	return out, nil
}

// TestPlannerMatchesReference: on random graph sets fed in batches whose
// later batches bring higher leaf IDs, the streaming Planner's plan is the
// reference planner's: each pair, read in creation order (Out.ID - nextID),
// is the reference op of that index with its stage; every stage lists the
// reference's stage in order; inputs, finals and sharing agree; and both
// refuse the same sets.
func TestPlannerMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var all []*Graph
		var p Planner
		pool := 4
		for batch := 1 + rng.Intn(4); batch > 0; batch-- {
			pool += 1 + rng.Intn(6)
			var gs []*Graph
			for i := rng.Intn(5); i >= 0; i-- {
				gs = append(gs, randomConnectedGraph(rng, len(all)+len(gs), 2+rng.Intn(7), pool))
			}
			if err := p.Add(gs); err != nil {
				t.Log(err)
				return false
			}
			all = append(all, gs...)
		}
		nextID := uint64(pool + 1 + rng.Intn(3))
		if rng.Intn(8) == 0 {
			nextID = uint64(pool) // a leaf at nextID: both refuse
		}
		got, err := p.Finish(nextID)
		want, refErr := referenceBuildPlan(all, nextID)
		if err != nil || refErr != nil {
			return err != nil && refErr != nil
		}
		if len(got.Ops) != len(want.Ops) || len(got.Stages) != len(want.StageOps) {
			return false
		}
		for s, st := range got.Stages {
			if len(st) != len(want.StageOps[s]) {
				return false
			}
			for k, pair := range st {
				i := want.StageOps[s][k]
				op := want.Ops[i]
				if pair.Out.ID-nextID != uint64(i) || op.Stage != s || pair.A != op.A || pair.B != op.B || pair.Out != op.Out {
					return false
				}
			}
		}
		return fmt.Sprint(got.Inputs, got.Finals, got.SharedOps) == fmt.Sprint(want.Inputs, want.Finals, want.SharedOps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(64))}); err != nil {
		t.Error(err)
	}
}
