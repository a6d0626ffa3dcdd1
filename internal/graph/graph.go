// Package graph models the contraction graphs of many-body correlation
// functions (paper Section II): small undirected graphs whose vertices are
// hadron nodes (batched tensors) and whose edges are quark propagations.
// A graph contraction deletes one edge after another — each deletion is a
// hadron contraction of the two endpoint tensors — until two nodes remain.
//
// The package also performs the pre-processing the paper attributes to
// Redstar: dependency analysis across many graphs that partitions all
// hadron contractions into sequential stages of mutually independent
// pairs, with identical sub-contractions deduplicated so that shared
// hadron nodes and shared intermediates appear exactly once. Whole graphs
// are deduplicated on an integer canonical form (sorted node tensor IDs,
// sorted edge ID pairs); Signature renders the same form as text.
package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"micco/internal/tensor"
)

// Node is a hadron node in a contraction graph.
type Node struct {
	// ID is the node's index within its graph.
	ID int
	// Tensor identifies the hadron block. Shared hadron nodes across
	// graphs carry the same tensor ID — that sharing is the data-reuse
	// opportunity MICCO exploits.
	Tensor tensor.Desc
}

// Edge is a quark propagation between two hadron nodes of one graph.
type Edge struct {
	U, V int
}

// Graph is one contraction graph.
type Graph struct {
	ID    int
	Nodes []Node
	Edges []Edge
}

// Validate checks structural soundness: edges reference existing distinct
// nodes and every node tensor is valid and shape-compatible.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("graph %d: no nodes", g.ID)
	}
	ref := g.Nodes[0].Tensor
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph %d: node %d has ID %d", g.ID, i, n.ID)
		}
		if !n.Tensor.Valid() {
			return fmt.Errorf("graph %d: node %d has invalid tensor %v", g.ID, i, n.Tensor)
		}
		if n.Tensor.Rank != ref.Rank || n.Tensor.Dim != ref.Dim || n.Tensor.Batch != ref.Batch {
			return fmt.Errorf("graph %d: node %d tensor %v incompatible with %v", g.ID, i, n.Tensor, ref)
		}
	}
	for _, e := range g.Edges {
		if e.U < 0 || e.U >= len(g.Nodes) || e.V < 0 || e.V >= len(g.Nodes) {
			return fmt.Errorf("graph %d: edge (%d,%d) out of range", g.ID, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("graph %d: self-loop at node %d", g.ID, e.U)
		}
	}
	return nil
}

// Connected reports whether the graph is a single connected component
// (required for a contraction to reduce it to a single product chain).
// It is a union-find over the node indices; graphs of up to 16 nodes —
// every correlator here has at most a handful — stay on the stack.
func (g *Graph) Connected() bool {
	if len(g.Nodes) == 0 {
		return false
	}
	var buf [16]int
	parent := buf[:0]
	for i := range g.Nodes {
		parent = append(parent, i)
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	components := len(parent)
	for _, e := range g.Edges {
		if u, v := find(e.U), find(e.V); u != v {
			parent[u] = v
			components--
		}
	}
	return components == 1
}

// appendCanonical appends g's canonical form to key: the graph up to node
// relabeling by tensor identity, as integers. It is the node count, the
// node tensor IDs in ascending order, then the edges as (lo, hi) tensor-ID
// pairs in ascending (lo, hi) order, every number a uvarint. The count
// makes the encoding injective: two graphs get equal keys exactly when
// their node multisets and edge multisets agree.
func (g *Graph) appendCanonical(key []byte) []byte {
	var nbuf [16]uint64
	nodes := nbuf[:0]
	for _, n := range g.Nodes {
		nodes = append(nodes, n.Tensor.ID)
	}
	slices.Sort(nodes)
	var ebuf [16][2]uint64
	edges := ebuf[:0]
	for _, e := range g.Edges {
		a, b := g.Nodes[e.U].Tensor.ID, g.Nodes[e.V].Tensor.ID
		if a > b {
			a, b = b, a
		}
		edges = append(edges, [2]uint64{a, b})
	}
	slices.SortFunc(edges, func(x, y [2]uint64) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	key = binary.AppendUvarint(key, uint64(len(nodes)))
	for _, id := range nodes {
		key = binary.AppendUvarint(key, id)
	}
	for _, e := range edges {
		key = binary.AppendUvarint(key, e[0])
		key = binary.AppendUvarint(key, e[1])
	}
	return key
}

// Signature renders the graph's canonical form — the one Dedup keys on —
// as text: "n[1 2 3]|e[1-2 2-3]", node tensor IDs ascending, then the
// edges as lo-hi tensor-ID pairs in ascending numeric order. Two graphs
// with equal signatures perform identical contractions. It is for tests
// and diagnostics; nothing on the planning path formats it.
func (g *Graph) Signature() string {
	key := g.appendCanonical(nil)
	next := func() uint64 {
		v, n := binary.Uvarint(key)
		key = key[n:]
		return v
	}
	var sb strings.Builder
	sb.WriteString("n[")
	for i, n := 0, int(next()); i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(next(), 10))
	}
	sb.WriteString("]|e[")
	for i := 0; len(key) > 0; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(next(), 10))
		sb.WriteByte('-')
		sb.WriteString(strconv.FormatUint(next(), 10))
	}
	sb.WriteString("]")
	return sb.String()
}

// Dedup returns the unique graphs of gs, preserving first-seen order. Two
// graphs are duplicates when their canonical forms agree: the same
// multiset of node tensors joined by the same multiset of edges, whatever
// the node numbering ("unique contraction graphs"). The key is built from
// integers in one reused buffer; only a first-seen graph's key is kept.
func Dedup(gs []*Graph) []*Graph {
	if len(gs) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(gs))
	out := make([]*Graph, 0, len(gs))
	var key []byte
	for _, g := range gs {
		key = g.appendCanonical(key[:0])
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, g)
	}
	return out
}
