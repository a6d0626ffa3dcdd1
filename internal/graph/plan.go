package graph

import (
	"errors"
	"fmt"
	"slices"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// ErrInvalidPlan marks every graph set BuildPlan refuses; the message names
// the graph and the reason.
var ErrInvalidPlan = errors.New("invalid plan")

// Plan is the staged, deduplicated execution plan for a set of contraction
// graphs. Identical contractions (same ordered operand tensor IDs) across
// graphs are performed once and their outputs shared.
type Plan struct {
	// Ops are the plan's contractions, stage-major: stage 0's first, and
	// within a stage in the order the planner made them. An op runs in its
	// stage once both operands exist. Intermediates are numbered from
	// Finish's firstID in creation order, so an op made n-th outputs
	// firstID+n wherever its stage puts it.
	Ops []workload.Pair
	// Stages[s] is stage s's run of Ops: the stage array
	// workload.FromStages adopts.
	Stages [][]workload.Pair
	// StageOps[s] lists the indices into Ops of stage s's pairs, a
	// consecutive run. It is kept for bench/'s layer probe, which indexes
	// Ops through it; read Stages instead.
	StageOps [][]int
	// Inputs are the distinct leaf hadron-node tensors.
	Inputs []tensor.Desc
	// Finals[i] is the tensor concluding the i-th graph added (the
	// correlator term before the trace).
	Finals []tensor.Desc
	// SharedOps counts how many per-graph contractions were satisfied by
	// an already-planned op (the cross-graph reuse the paper highlights).
	SharedOps int
}

// While a Planner streams, the output of the op it makes n-th in stage s
// carries the provisional ID provisional | n<<stageBits | s until Finish
// numbers it firstID+n. Leaves sit below 1<<32 (Add holds them there), so a
// provisional ID compares above every leaf and in creation order, as the
// final ID will, and it names the stage its tensor is made in.
const (
	provisional = 1 << 63
	stageBits   = 31
	maxStage    = 1<<stageBits - 1
)

// madeIn returns the creation index and the stage of the op whose output
// has provisional ID id.
func madeIn(id uint64) (n uint32, stage int) {
	return uint32(id >> stageBits), int(id & maxStage)
}

// code packs a tensor ID of the streaming planner into 32 bits: a leaf as
// its ID, the n-th intermediate as ^n, counting down from 1<<32-1. The two
// ranges meet only in a plan whose final IDs overflow 32 bits, which
// Finish refuses.
func code(id uint64) uint32 {
	if id >= provisional {
		n, _ := madeIn(id)
		return ^n
	}
	return uint32(id)
}

// opRec is one op of the creation-order log Finish lays out: its operands'
// codes, A's first, and its stage.
type opRec struct {
	a, b  uint32
	stage int32
}

// push appends v to s, doubling s's capacity when it is full. The planner's
// lists grow over a whole stream, where append's 1.25x steps past 256
// elements would allocate about five times their final size.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, v)
}

// Planner compiles contraction graphs into a Plan a batch at a time: Add
// the batches in order, then Finish. Intermediates get their IDs only in
// Finish, so a caller may stream graphs whose leaves it is still issuing
// (redstar adds one sink time at a time) and name the first intermediate ID
// once every leaf exists. While streaming, the planner keeps the memo, the
// leaves and a 4-byte code per graph's final; the memo is the op log too,
// and Finish lays it out in creation order, a few bytes per op, before it
// writes the pairs once, exactly sized and stage-major. The zero Planner is
// ready to use; it is spent after Finish or after an error.
type Planner struct {
	// memo maps an op's operand codes, A's above B's, to its output's
	// provisional ID.
	memo map[uint64]uint64
	// inputAt[id] is one past leaf id's index in inputs, 0 before it is
	// seen: one entry per ID up to the largest leaf, so leaves should be
	// numbered densely, as wick's BlockTable does.
	inputAt      []uint32
	inputs       []tensor.Desc
	finals       []uint32 // the code of each graph's final tensor
	maxLeaf      uint64
	maxLeafGraph int
	shared       int

	// scratch of reduce, reused from graph to graph
	tensors     []tensor.Desc
	edges, next []Edge
	matched     []bool
}

// BuildPlan compiles graphs into a staged plan: a Planner that adds graphs
// and finishes with nextID. nextID must exceed every leaf tensor ID and
// should sit just past the leaves, as wick's BlockTable.NextID does. Every
// tensor ID of the plan, intermediates included, must fit in 32 bits. Every
// graph must be valid and connected. Every refusal wraps ErrInvalidPlan.
func BuildPlan(graphs []*Graph, nextID uint64) (*Plan, error) {
	var p Planner
	p.Reserve(MaxOps(graphs))
	if err := p.Add(graphs); err != nil {
		return nil, err
	}
	return p.Finish(nextID)
}

// MaxOps bounds the contractions a plan of graphs makes: a graph of n
// nodes adds at most n-1, and sharing only lowers that.
func MaxOps(graphs []*Graph) int {
	ops := 0
	for _, g := range graphs {
		ops += max(len(g.Nodes)-1, 0)
	}
	return ops
}

// Reserve sizes the memo for ops contractions, as a size hint to make
// does, so that a caller that can bound its stream's ops (MaxOps) spares
// the memo its regrowth. It has effect only before the first Add.
func (p *Planner) Reserve(ops int) {
	if p.memo == nil {
		p.memo = make(map[uint64]uint64, ops)
	}
}

// Add plans graphs after those added before. A leaf ID must fit in 32 bits
// and name one tensor descriptor throughout. Every refusal wraps
// ErrInvalidPlan.
func (p *Planner) Add(graphs []*Graph) error {
	if p.memo == nil {
		p.memo = make(map[uint64]uint64)
	}
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("graph: %w: %w", ErrInvalidPlan, err)
		}
		if !g.Connected() {
			return fmt.Errorf("graph: %w: graph %d: not connected", ErrInvalidPlan, g.ID)
		}
		for _, n := range g.Nodes {
			id := n.Tensor.ID
			if id >= 1<<32 {
				return fmt.Errorf("graph: %w: graph %d: leaf tensor ID %d does not fit 32 bits", ErrInvalidPlan, g.ID, id)
			}
			if id >= uint64(len(p.inputAt)) {
				p.inputAt = append(p.inputAt, make([]uint32, id+1-uint64(len(p.inputAt)))...)
			}
			if at := p.inputAt[id]; at == 0 {
				p.inputs = push(p.inputs, n.Tensor)
				p.inputAt[id] = uint32(len(p.inputs))
			} else if first := p.inputs[at-1]; first != n.Tensor {
				return fmt.Errorf("graph: %w: graph %d: leaf tensor %v was %v in an earlier graph", ErrInvalidPlan, g.ID, n.Tensor, first)
			}
			if id > p.maxLeaf {
				p.maxLeaf, p.maxLeafGraph = id, g.ID
			}
		}
		final, err := p.reduce(g)
		if err != nil {
			return fmt.Errorf("graph: %w: %w", ErrInvalidPlan, err)
		}
		p.finals = push(p.finals, code(final.ID))
	}
	return nil
}

// Finish numbers the intermediates from firstID in creation order and
// returns the plan. firstID must exceed every leaf ID, and the last
// intermediate's ID must fit in 32 bits. Every refusal wraps
// ErrInvalidPlan.
func (p *Planner) Finish(firstID uint64) (*Plan, error) {
	n := uint64(len(p.memo))
	if firstID >= 1<<32-n {
		return nil, fmt.Errorf("graph: %w: nextID %d and %d intermediates overflow 32-bit tensor IDs",
			ErrInvalidPlan, firstID, n)
	}
	if len(p.inputs) > 0 && p.maxLeaf >= firstID {
		return nil, fmt.Errorf("graph: %w: graph %d: leaf tensor ID %d >= nextID %d",
			ErrInvalidPlan, p.maxLeafGraph, p.maxLeaf, firstID)
	}
	// Lay the memo out in creation order and count each stage; give each
	// stage its run of Ops, and write every op at its stage's cursor in
	// creation order: an op's operands are made before it, so their
	// positions (at) are known when it is written.
	log := make([]opRec, n)
	var starts []uint32
	for key, id := range p.memo {
		i, stage := madeIn(id)
		log[i] = opRec{a: uint32(key >> 32), b: uint32(key), stage: int32(stage)}
		for stage >= len(starts) {
			starts = append(starts, 0)
		}
		starts[stage]++
	}
	ops := make([]workload.Pair, n)
	stages := make([][]workload.Pair, len(starts))
	stageOps := make([][]int, len(starts))
	index := make([]int, n)
	next := uint32(0)
	for s, count := range starts {
		stages[s] = ops[next : next+count : next+count]
		stageOps[s] = index[next : next+count : next+count]
		starts[s], next = next, next+count
	}
	for i := range index {
		index[i] = i
	}
	at := make([]uint32, n)
	desc := func(c uint32) tensor.Desc {
		if i := ^c; i < uint32(n) {
			return ops[at[i]].Out
		}
		return p.inputs[p.inputAt[c]-1]
	}
	for i, r := range log {
		at[i] = starts[r.stage]
		starts[r.stage]++
		a, b := desc(r.a), desc(r.b)
		out, _ := tensor.ContractOut(a, b, firstID+uint64(i)) // emit checked the shapes
		ops[at[i]] = workload.Pair{A: a, B: b, Out: out}
	}
	finals := make([]tensor.Desc, len(p.finals))
	for i, c := range p.finals {
		finals[i] = desc(c)
	}
	plan := &Plan{Ops: ops, Stages: stages, StageOps: stageOps,
		Inputs: p.inputs, Finals: finals, SharedOps: p.shared}
	*p = Planner{}
	return plan, nil
}

// reduce contracts graph g to a single node via rounds of maximal matching
// (independent edges contract concurrently), memoizing each contraction.
func (p *Planner) reduce(g *Graph) (tensor.Desc, error) {
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
func stageOf(id uint64) int {
	if id < provisional {
		return 0
	}
	_, stage := madeIn(id)
	return stage + 1
}

// emit returns the output of contracting a with b, reusing a planned op
// when the same ordered contraction was already emitted. Operands are
// canonically ordered by tensor ID (contraction order is a convention of
// the plan, applied consistently); provisional IDs order as the final ones
// will.
func (p *Planner) emit(a, b tensor.Desc) (tensor.Desc, error) {
	if a.ID > b.ID {
		a, b = b, a
	}
	key := uint64(code(a.ID))<<32 | uint64(code(b.ID))
	if id, ok := p.memo[key]; ok {
		// One ID names one descriptor (Add checks the leaves), and an
		// output takes its first operand's shape.
		p.shared++
		return tensor.Desc{ID: id, Rank: a.Rank, Dim: a.Dim, Batch: a.Batch}, nil
	}
	n, stage := len(p.memo), max(stageOf(a.ID), stageOf(b.ID))
	if n == 1<<32-1 || stage > maxStage {
		return tensor.Desc{}, errors.New("too many intermediates for 32-bit tensor IDs")
	}
	out, err := tensor.ContractOut(a, b, provisional|uint64(n)<<stageBits|uint64(stage))
	if err != nil {
		return tensor.Desc{}, err
	}
	p.memo[key] = out.ID
	return out, nil
}

// NumStages returns the number of sequential stages in the plan.
func (p *Plan) NumStages() int { return len(p.Stages) }

// TotalFLOPs sums the kernel work over all planned ops.
func (p *Plan) TotalFLOPs() int64 {
	var total int64
	for _, op := range p.Ops {
		f, err := tensor.ContractFLOPs(op.A, op.B)
		if err == nil {
			total += f
		}
	}
	return total
}

// TotalUniqueBytes returns the combined footprint of all distinct tensors
// the plan touches (leaves and intermediates).
func (p *Plan) TotalUniqueBytes() int64 {
	var total int64
	for _, d := range p.Inputs {
		total += d.Bytes()
	}
	for _, op := range p.Ops {
		total += op.Out.Bytes()
	}
	return total
}
