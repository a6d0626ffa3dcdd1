package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// oldSignature is Signature as it stood when Dedup keyed on it: node IDs
// through fmt, edges rendered "lo-hi" and sorted as strings. The oracle
// for the integer canonical form.
func oldSignature(g *Graph) string {
	edges := make([]string, 0, len(g.Edges))
	for _, e := range g.Edges {
		a := g.Nodes[e.U].Tensor.ID
		b := g.Nodes[e.V].Tensor.ID
		if a > b {
			a, b = b, a
		}
		edges = append(edges, fmt.Sprintf("%d-%d", a, b))
	}
	sort.Strings(edges)
	nodes := make([]uint64, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n.Tensor.ID)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return fmt.Sprintf("n%v|e%v", nodes, edges)
}

// TestDedupMatchesSignature: on random multigraphs — parallel edges, one
// tensor on several nodes, tensor IDs around 9/10 and 99/100 where string
// order and numeric order part ways, more nodes and edges than the stack
// buffers hold — Dedup keeps exactly the graphs the string signature kept,
// and two Signatures agree exactly when the old ones did.
func TestDedupMatchesSignature(t *testing.T) {
	ids := []uint64{1, 2, 8, 9, 10, 11, 19, 20, 98, 99, 100, 101, 109, 110, 999, 1000}
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		// A small tensor pool per round, so duplicates are common.
		pool := make([]uint64, 2+rng.Intn(4))
		for i := range pool {
			pool[i] = ids[rng.Intn(len(ids))]
		}
		maxNodes := 4
		if round%20 == 0 {
			maxNodes = 24
		}
		gs := make([]*Graph, 40)
		for i := range gs {
			g := &Graph{ID: i}
			for n, numNodes := 0, 2+rng.Intn(maxNodes-1); n < numNodes; n++ {
				g.Nodes = append(g.Nodes, Node{ID: n, Tensor: td(pool[rng.Intn(len(pool))])})
			}
			for e, numEdges := 0, 1+rng.Intn(2*maxNodes); e < numEdges; e++ {
				u := rng.Intn(len(g.Nodes))
				v := (u + 1 + rng.Intn(len(g.Nodes)-1)) % len(g.Nodes)
				g.Edges = append(g.Edges, Edge{U: u, V: v})
			}
			gs[i] = g
		}
		seen := map[string]bool{}
		var want []*Graph
		for _, g := range gs {
			if sig := oldSignature(g); !seen[sig] {
				seen[sig] = true
				want = append(want, g)
			}
		}
		got := Dedup(gs)
		if len(got) != len(want) {
			t.Fatalf("round %d: Dedup kept %d graphs, the string signature %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: survivor %d is graph %d, want graph %d", round, i, got[i].ID, want[i].ID)
			}
		}
		for _, a := range gs[:10] {
			for _, b := range gs {
				if (a.Signature() == b.Signature()) != (oldSignature(a) == oldSignature(b)) {
					t.Fatalf("round %d: Signature %q vs %q disagrees with %q vs %q",
						round, a.Signature(), b.Signature(), oldSignature(a), oldSignature(b))
				}
			}
		}
	}
	if got := Dedup(nil); got != nil {
		t.Errorf("Dedup(nil) = %v, want nil", got)
	}
}

// TestSignatureRendering pins the text form: nodes ascending, then lo-hi
// edge pairs in numeric order (10-11 after 9-10, not before it).
func TestSignatureRendering(t *testing.T) {
	g := &Graph{
		Nodes: []Node{{ID: 0, Tensor: td(10)}, {ID: 1, Tensor: td(9)}, {ID: 2, Tensor: td(11)}},
		Edges: []Edge{{U: 0, V: 2}, {U: 0, V: 1}, {U: 1, V: 0}},
	}
	if got, want := g.Signature(), "n[9 10 11]|e[9-10 9-10 10-11]"; got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
}

// TestConnectedMatchesSearch checks the union-find against a plain
// breadth-first search, past the 16 nodes its stack buffer holds.
func TestConnectedMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 500; round++ {
		n := 1 + rng.Intn(24)
		g := &Graph{}
		for i := 0; i < n; i++ {
			g.Nodes = append(g.Nodes, Node{ID: i, Tensor: td(uint64(i + 1))})
		}
		for e, numEdges := 0, rng.Intn(2*n); e < numEdges && n > 1; e++ {
			g.Edges = append(g.Edges, Edge{U: rng.Intn(n), V: rng.Intn(n)})
		}
		reached := map[int]bool{0: true}
		for grew := true; grew; {
			grew = false
			for _, e := range g.Edges {
				if reached[e.U] != reached[e.V] {
					reached[e.U], reached[e.V] = true, true
					grew = true
				}
			}
		}
		if got, want := g.Connected(), len(reached) == n; got != want {
			t.Fatalf("round %d: Connected = %v, search says %v (%d nodes, edges %v)", round, got, want, n, g.Edges)
		}
	}
}
