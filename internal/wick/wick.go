// Package wick expands correlation-function specifications into contraction
// graphs, the front-end role Redstar plays in the paper: given source and
// sink interpolating operators with quark content, it enumerates the Wick
// contractions — all flavor-preserving pairings of quarks with antiquarks —
// and emits one contraction graph per pairing, with hadron blocks shared
// across graphs, momenta and time slices through a common block table.
// Graphs that are disconnected (or contain self-contractions) are dropped,
// and isomorphic duplicates are deduplicated, yielding the paper's "unique
// contraction graphs".
//
// The enumeration of a spec does not depend on the time slices — they only
// name the blocks — so a block table keeps it as a template, built on the
// first Expand of that spec content and stamped onto the requested blocks
// on every call (DESIGN.md §17).
package wick

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"micco/internal/graph"
	"micco/internal/tensor"
)

// Quark is one quark field inside an interpolating operator.
type Quark struct {
	Flavor string
	Bar    bool // true for an antiquark
}

// Q returns a quark of the given flavor.
func Q(flavor string) Quark { return Quark{Flavor: flavor} }

// Qbar returns an antiquark of the given flavor.
func Qbar(flavor string) Quark { return Quark{Flavor: flavor, Bar: true} }

// Operator is an interpolating operator (a hadron): a named bundle of
// quark fields. Meson returns the common quark-antiquark case.
type Operator struct {
	Name   string
	Quarks []Quark
}

// Meson builds a quark-antiquark operator.
func Meson(name, quark, antiquark string) Operator {
	return Operator{Name: name, Quarks: []Quark{Q(quark), Qbar(antiquark)}}
}

// Spec is a correlation-function specification.
type Spec struct {
	Name string
	// Source and Sink operators. In a correlator the source is daggered;
	// this front end expects callers to provide the quark content
	// post-conjugation, so flavors must balance across Source+Sink.
	Source, Sink []Operator
	// Momenta is the number of momentum projections per sink operator;
	// each combination produces its own graphs over distinct sink blocks.
	Momenta int
	// TensorDim and Batch shape every hadron-block tensor.
	TensorDim, Batch int
}

// Validate checks the spec is expandable: operators exist, and every
// flavor has equally many quarks and antiquarks.
func (s Spec) Validate() error {
	if err := s.validateShape(); err != nil {
		return err
	}
	counts, order := map[string]int{}, []string{} // order: first appearance
	for _, ops := range [2][]Operator{s.Source, s.Sink} {
		for _, op := range ops {
			if len(op.Quarks) == 0 {
				return fmt.Errorf("wick: operator %q has no quarks", op.Name)
			}
			for _, q := range op.Quarks {
				if q.Flavor == "" {
					return fmt.Errorf("wick: operator %q has a quark with empty flavor", op.Name)
				}
				if _, seen := counts[q.Flavor]; !seen {
					order = append(order, q.Flavor)
				}
				if q.Bar {
					counts[q.Flavor]--
				} else {
					counts[q.Flavor]++
				}
			}
		}
	}
	for _, f := range order {
		if c := counts[f]; c != 0 {
			return fmt.Errorf("wick: flavor %q unbalanced by %d", f, c)
		}
	}
	return nil
}

// validateShape is Validate without the quark checks, which need a map.
// Expand runs it alone on a template hit: the template key holds the
// operators, their quarks and the momentum count, and a template is only
// built for a spec that passed the whole of Validate.
func (s Spec) validateShape() error {
	if len(s.Source) == 0 || len(s.Sink) == 0 {
		return errors.New("wick: spec needs source and sink operators")
	}
	if s.Momenta <= 0 {
		return errors.New("wick: Momenta must be positive")
	}
	if s.TensorDim <= 0 || s.Batch <= 0 {
		return errors.New("wick: TensorDim and Batch must be positive")
	}
	return nil
}

// BlockKey identifies a hadron block: an operator evaluated at a momentum
// projection and a time slice.
type BlockKey struct {
	Op       string
	Momentum int
	Time     int
}

// BlockTable assigns stable tensor identities to hadron blocks so that the
// same block is the same tensor across graphs, momenta and time slices. It
// also owns the expansion templates of the specs expanded against it (see
// Expand), so they live exactly as long as the table.
//
// Blocks are issued IDs from 1 in creation order, and all share one shape,
// so the IDs alone say which tensors exist. An operator name is interned
// once, to a number, when a template is built (or when Get meets it); a
// block is then found by its integer key (blockKey), never by name.
type BlockTable struct {
	dim, batch, rank int
	ops              map[string]uint32
	// blocks maps a packed blockKey to its tensor ID; wide holds the keys
	// that do not pack, made on first use.
	blocks map[uint64]uint64
	wide   map[blockKey]uint64
	next   uint64

	templates map[string]*template
	specKey   []byte // reused buffer for the template lookup

	// Scratch of requestBlocks: the sink blocks of one call by (sink
	// operator, momentum), and the momentum-assignment counter.
	sinkBlocks []tensor.Desc
	momenta    []int
}

// blockKey is a block's integer identity: its operator's interned number,
// its momentum projection and its time slice.
type blockKey struct {
	op             uint32
	momentum, time int
}

// packed returns k in one word — operator number, momentum and time in 16,
// 16 and 32 bits — and whether it fits there.
func (k blockKey) packed() (uint64, bool) {
	if k.op >= 1<<16 || uint(k.momentum) >= 1<<16 || int(int32(k.time)) != k.time {
		return 0, false
	}
	return uint64(k.op)<<48 | uint64(k.momentum)<<32 | uint64(uint32(k.time)), true
}

// NewBlockTable creates a table of rank-2 (meson) blocks issuing tensor
// IDs from 1.
func NewBlockTable(dim, batch int) *BlockTable {
	return NewBlockTableWithRank(dim, batch, tensor.RankMeson)
}

// NewBlockTableWithRank creates a table of blocks with the given tensor
// rank: tensor.RankMeson for meson systems, tensor.RankBaryon for baryon
// systems (batched rank-3 hadron blocks).
func NewBlockTableWithRank(dim, batch, rank int) *BlockTable {
	return &BlockTable{dim: dim, batch: batch, rank: rank, next: 1,
		ops: make(map[string]uint32), blocks: make(map[uint64]uint64),
		templates: make(map[string]*template)}
}

// Get returns the tensor for key, creating it on first use.
func (bt *BlockTable) Get(key BlockKey) tensor.Desc {
	return bt.block(blockKey{bt.intern(key.Op), key.Momentum, key.Time})
}

// intern returns the number of operator name, issuing the next one on
// first use.
func (bt *BlockTable) intern(name string) uint32 {
	op, ok := bt.ops[name]
	if !ok {
		op = uint32(len(bt.ops))
		bt.ops[name] = op
	}
	return op
}

// internOps returns the numbers of ops' names, in order.
func (bt *BlockTable) internOps(ops []Operator) []uint32 {
	out := make([]uint32, len(ops))
	for i, op := range ops {
		out[i] = bt.intern(op.Name)
	}
	return out
}

// block returns the tensor of block k, issuing the next ID on first use.
func (bt *BlockTable) block(k blockKey) tensor.Desc {
	w, packs := k.packed()
	var id uint64
	if packs {
		id = bt.blocks[w]
	} else {
		id = bt.wide[k]
	}
	if id == 0 {
		id = bt.next
		bt.next++
		if packs {
			bt.blocks[w] = id
		} else {
			if bt.wide == nil {
				bt.wide = make(map[blockKey]uint64)
			}
			bt.wide[k] = id
		}
	}
	return bt.desc(id)
}

func (bt *BlockTable) desc(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: bt.rank, Dim: bt.dim, Batch: bt.batch}
}

// Tensors returns every issued block tensor in creation order.
func (bt *BlockTable) Tensors() []tensor.Desc {
	out := make([]tensor.Desc, 0, bt.Len())
	for id := uint64(1); id < bt.next; id++ {
		out = append(out, bt.desc(id))
	}
	return out
}

// NextID returns the first unissued tensor ID (for plan intermediates).
func (bt *BlockTable) NextID() uint64 { return bt.next }

// Len returns the number of issued blocks.
func (bt *BlockTable) Len() int { return int(bt.next - 1) }

// template is what Expand's result has in common over every pair of times
// with the same srcTime == snkTime answer. Two nodes share a block exactly
// when operator name, momentum and time agree, so which pairings are
// connected, which of those survive deduplication, their edges and their
// rank among the connected ones follow from the spec's operators and
// momenta alone; the times only choose which blocks the nodes are.
type template struct {
	// src and snk are the spec's source and sink operators, interned on
	// the table that owns the template.
	src, snk []uint32
	// connected counts the connected pairings over all momentum
	// assignments, deduplicated or not: each takes one graph ID.
	connected int
	graphs    []templateGraph // the survivors, in emission order
	edges     []graph.Edge    // their edge lists, back to back
}

// templateGraph is one surviving graph: the momentum assignment whose
// nodes it sits on (in enumeration order), its rank among the connected
// pairings (its ID past the call's first), and its share of the edges.
type templateGraph struct {
	assignment, ordinal int
	edgeLo, edgeHi      int
}

// appendSpecKey appends what a template depends on: the operators' names
// and quark content, source and sink kept apart, the momentum count, and
// whether source and sink times coincide. Strings are length-prefixed, so
// different specs cannot produce the same key. The spec's Name is left
// out: it labels the spec and changes nothing about its graphs.
func appendSpecKey(key []byte, spec Spec, sameTime bool) []byte {
	str := func(s string) {
		key = binary.AppendUvarint(key, uint64(len(s)))
		key = append(key, s...)
	}
	ops := func(ops []Operator) {
		key = binary.AppendUvarint(key, uint64(len(ops)))
		for _, op := range ops {
			str(op.Name)
			key = binary.AppendUvarint(key, uint64(len(op.Quarks)))
			for _, q := range op.Quarks {
				str(q.Flavor)
				if q.Bar {
					key = append(key, 1)
				} else {
					key = append(key, 0)
				}
			}
		}
	}
	ops(spec.Source)
	ops(spec.Sink)
	key = binary.AppendUvarint(key, uint64(spec.Momenta))
	if sameTime {
		return append(key, 1)
	}
	return append(key, 0)
}

// Expand enumerates the unique contraction graphs of spec for one source
// time (srcTime) and one sink time (snkTime), issuing hadron blocks from
// bt and graph IDs from *nextGraphID: every connected pairing takes one ID
// in enumeration order, and the survivors of deduplication keep theirs.
// Pairings that self-contract within one operator or leave the diagram
// disconnected are dropped; isomorphic graphs are deduplicated.
//
// The pairings are enumerated once per block table and spec content
// (operators, quarks, momenta — not the spec's Name) and per answer to
// srcTime == snkTime; the result is kept on bt as a template. Every call,
// the first included, then requests the blocks of the momentum
// assignments from bt, each once and in enumeration order (see
// requestBlocks), and stamps the template's graphs onto them, so a
// repeated spec costs a few allocations however many graphs it has.
// Graphs of one momentum assignment share their Nodes backing array; no
// two graphs share Edges. The spec is validated in full when its template
// is built; a call that finds the template runs only Validate's shape
// checks, since the key holds everything the quark checks read.
//
// Expand is ExpandInto on a Buffer of its own, so the graphs it returns
// share storage with nothing else.
func Expand(spec Spec, srcTime, snkTime int, bt *BlockTable, nextGraphID *int) ([]*graph.Graph, error) {
	var buf Buffer
	if err := ExpandInto(&buf, spec, srcTime, snkTime, bt, nextGraphID); err != nil {
		return nil, err
	}
	return buf.Graphs(), nil
}

// Buffer is caller-owned storage for expanded graphs: ExpandInto appends to
// it, and Reset lets the next expansions reuse it, so a caller that
// consumes one batch of graphs before expanding the next (redstar's one
// sink time at a time) keeps one batch's worth of graph memory. The zero
// Buffer is empty and ready to use.
type Buffer struct {
	nodes []graph.Node
	edges []graph.Edge
	slab  []graph.Graph
	ptrs  []*graph.Graph
}

// Reset empties b, keeping its storage. Graphs returned before it are
// overwritten by the expansions after it.
func (b *Buffer) Reset() {
	b.nodes, b.edges, b.slab = b.nodes[:0], b.edges[:0], b.slab[:0]
}

// Graphs returns the graphs expanded into b since its last Reset, in
// expansion order (nil when there are none). They live in b and are valid
// until the next Reset.
func (b *Buffer) Graphs() []*graph.Graph {
	if len(b.slab) == 0 {
		return nil
	}
	b.ptrs = slices.Grow(b.ptrs[:0], len(b.slab))
	for i := range b.slab {
		b.ptrs = append(b.ptrs, &b.slab[i])
	}
	return b.ptrs
}

// ExpandInto is Expand appending the graphs to buf instead of returning
// them; see Expand for what it issues from bt and *nextGraphID.
func ExpandInto(buf *Buffer, spec Spec, srcTime, snkTime int, bt *BlockTable, nextGraphID *int) error {
	sameTime := srcTime == snkTime
	bt.specKey = appendSpecKey(bt.specKey[:0], spec, sameTime)
	tpl, ok := bt.templates[string(bt.specKey)]
	if ok {
		if err := spec.validateShape(); err != nil {
			return err
		}
	} else {
		if err := spec.Validate(); err != nil {
			return err
		}
		tpl = buildTemplate(spec, sameTime)
		tpl.src, tpl.snk = bt.internOps(spec.Source), bt.internOps(spec.Sink)
		bt.templates[string(bt.specKey)] = tpl
	}

	numOps := len(spec.Source) + len(spec.Sink)
	first := len(buf.nodes)
	buf.nodes = requestBlocks(bt, buf.nodes, tpl.src, tpl.snk, spec.Momenta, srcTime, snkTime)
	nodes := buf.nodes[first:]

	base := *nextGraphID
	*nextGraphID += tpl.connected
	first = len(buf.edges)
	buf.edges = append(buf.edges, tpl.edges...)
	edges := buf.edges[first:]
	buf.slab = slices.Grow(buf.slab, len(tpl.graphs))
	for _, tg := range tpl.graphs {
		lo, hi := tg.assignment*numOps, (tg.assignment+1)*numOps
		buf.slab = append(buf.slab, graph.Graph{
			ID:    base + tg.ordinal,
			Nodes: nodes[lo:hi:hi],
			Edges: edges[tg.edgeLo:tg.edgeHi:tg.edgeHi],
		})
	}
	return nil
}

// requestBlocks appends to dst the blocks of every momentum assignment of
// the sink operators snk (interned on bt, each with momenta projections),
// in enumeration order (last sink fastest), one row per assignment: row a
// holds assignment a's nodes, sources src (momentum 0, srcTime) first, then
// sinks (their momentum, snkTime). The order of the requests is part of
// Expand's contract, because a first request issues a tensor ID: each
// source and each (sink, momentum) is requested from bt once, where it
// first appears in that order, and later rows copy it.
func requestBlocks(bt *BlockTable, dst []graph.Node, src, snk []uint32, momenta, srcTime, snkTime int) []graph.Node {
	numSrc := len(src)
	numOps := numSrc + len(snk)
	assignments := 1
	for range snk {
		assignments *= momenta
	}
	first := len(dst)
	dst = slices.Grow(dst, assignments*numOps)[:first+assignments*numOps]
	nodes := dst[first:]
	for i, op := range src {
		nodes[i] = graph.Node{ID: i, Tensor: bt.block(blockKey{op, 0, srcTime})}
	}
	// sinks[i*momenta+m] is sink i's block at momentum m; ID 0 (never
	// issued) marks one not requested yet.
	sinks := slices.Grow(bt.sinkBlocks[:0], len(snk)*momenta)[:len(snk)*momenta]
	clear(sinks)
	counter := slices.Grow(bt.momenta[:0], len(snk))[:len(snk)]
	clear(counter)
	bt.sinkBlocks, bt.momenta = sinks, counter
	for row := nodes; len(row) > 0; row = row[numOps:] {
		copy(row, nodes[:numSrc])
		for i, op := range snk {
			d := &sinks[i*momenta+counter[i]]
			if d.ID == 0 {
				*d = bt.block(blockKey{op, counter[i], snkTime})
			}
			row[numSrc+i] = graph.Node{ID: numSrc + i, Tensor: *d}
		}
		for pos := len(counter) - 1; pos >= 0; pos-- {
			if counter[pos]++; counter[pos] < momenta {
				break
			}
			counter[pos] = 0
		}
	}
	return dst
}

// buildTemplate enumerates the pairings of a valid spec — once: they do
// not depend on the momenta — lays them over every momentum assignment of
// a private block table (source time 0, sink time 0 or 1, so that tensor
// identity there stands for block identity anywhere), and deduplicates.
func buildTemplate(spec Spec, sameTime bool) *template {
	// Collect quark and antiquark slots per flavor: which operator (global
	// index over source then sink) each field belongs to.
	quarks := map[string][]int{}
	antis := map[string][]int{}
	var flavors []string
	numOps := 0
	for _, ops := range [2][]Operator{spec.Source, spec.Sink} {
		for _, op := range ops {
			for _, q := range op.Quarks {
				m := quarks
				if q.Bar {
					m = antis
				}
				if len(quarks[q.Flavor]) == 0 && len(antis[q.Flavor]) == 0 {
					flavors = append(flavors, q.Flavor)
				}
				m[q.Flavor] = append(m[q.Flavor], numOps)
			}
			numOps++
		}
	}
	pairings := connectedPairings(numOps, flavors, quarks, antis)

	snkTime := 1
	if sameTime {
		snkTime = 0
	}
	scratch := NewBlockTable(1, 1)
	nodes := requestBlocks(scratch, nil, scratch.internOps(spec.Source), scratch.internOps(spec.Sink), spec.Momenta, 0, snkTime)
	var all []*graph.Graph
	for ; len(nodes) > 0; nodes = nodes[numOps:] {
		for _, edges := range pairings {
			all = append(all, &graph.Graph{ID: len(all), Nodes: nodes[:numOps], Edges: edges})
		}
	}

	tpl := &template{connected: len(all)}
	for _, g := range graph.Dedup(all) {
		lo := len(tpl.edges)
		tpl.edges = append(tpl.edges, g.Edges...)
		tpl.graphs = append(tpl.graphs, templateGraph{
			assignment: g.ID / len(pairings), ordinal: g.ID, edgeLo: lo, edgeHi: len(tpl.edges)})
	}
	return tpl
}

// connectedPairings enumerates the flavor-preserving bijections of quarks
// onto antiquarks over numOps operators and returns the edge list of every
// pairing that is connected and free of self-contractions, in enumeration
// order.
func connectedPairings(numOps int, flavors []string, quarks, antis map[string][]int) [][]graph.Edge {
	nodes := make([]graph.Node, numOps)
	var out [][]graph.Edge
	edges := []graph.Edge{}
	var recurse func(fi int)
	recurse = func(fi int) {
		if fi == len(flavors) {
			g := graph.Graph{Nodes: nodes, Edges: edges}
			if g.Connected() {
				out = append(out, append([]graph.Edge(nil), edges...))
			}
			return
		}
		f := flavors[fi]
		qs, as := quarks[f], antis[f]
		// Permute antiquark assignment over quarks.
		perm := make([]int, len(as))
		used := make([]bool, len(as))
		var permute func(k int)
		permute = func(k int) {
			if k == len(qs) {
				// Append this flavor's edges, recurse to next flavor.
				added := 0
				ok := true
				for qi, ai := range perm[:len(qs)] {
					u, v := qs[qi], as[ai]
					if u == v {
						ok = false // self-contraction within one operator
						break
					}
					edges = append(edges, graph.Edge{U: u, V: v})
					added++
				}
				if ok {
					recurse(fi + 1)
				}
				edges = edges[:len(edges)-added]
				return
			}
			for ai := range as {
				if used[ai] {
					continue
				}
				used[ai] = true
				perm[k] = ai
				permute(k + 1)
				used[ai] = false
			}
		}
		permute(0)
	}
	recurse(0)
	return out
}
