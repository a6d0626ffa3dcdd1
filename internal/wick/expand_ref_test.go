package wick

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"micco/internal/graph"
)

// The reference: Expand, graph.Connected, graph.Signature and graph.Dedup
// as they stood before expansion became a stamped template and the
// signature an integer key — the full enumeration on every call, a DFS
// for connectivity and fmt-rendered string signatures. Kept verbatim
// (names prefixed with ref) as the oracle the tests below compare with.

// refQuarkSlot locates one quark field: which operator (global index over
// source then sink) it belongs to.
type refQuarkSlot struct {
	opIdx int
}

// refExpand enumerates the unique contraction graphs of spec for one source
// time (srcTime) and one sink time (snkTime), issuing hadron blocks from
// bt and graph IDs from *nextGraphID (advanced as graphs are emitted).
// Pairings that self-contract within one operator or leave the diagram
// disconnected are dropped; isomorphic graphs are deduplicated.
func refExpand(spec Spec, srcTime, snkTime int, bt *BlockTable, nextGraphID *int) ([]*graph.Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ops := append(append([]Operator{}, spec.Source...), spec.Sink...)
	numSrc := len(spec.Source)

	// Collect quark and antiquark slots per flavor.
	quarks := map[string][]refQuarkSlot{}
	antis := map[string][]refQuarkSlot{}
	var flavors []string
	for i, op := range ops {
		for _, q := range op.Quarks {
			m := quarks
			if q.Bar {
				m = antis
			}
			if _, ok := m[q.Flavor]; !ok && len(quarks[q.Flavor]) == 0 && len(antis[q.Flavor]) == 0 {
				flavors = append(flavors, q.Flavor)
			}
			m[q.Flavor] = append(m[q.Flavor], refQuarkSlot{opIdx: i})
		}
	}

	// Enumerate momentum assignments for sink operators (sources fixed at
	// momentum 0).
	var all []*graph.Graph
	momenta := make([]int, len(spec.Sink))
	var emitMomentum func(pos int) error
	emitMomentum = func(pos int) error {
		if pos == len(spec.Sink) {
			gs, err := refExpandPairings(spec, ops, numSrc, flavors, quarks, antis,
				srcTime, snkTime, momenta, bt, nextGraphID)
			if err != nil {
				return err
			}
			all = append(all, gs...)
			return nil
		}
		for m := 0; m < spec.Momenta; m++ {
			momenta[pos] = m
			if err := emitMomentum(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitMomentum(0); err != nil {
		return nil, err
	}
	return refDedup(all), nil
}

// refExpandPairings enumerates flavor-preserving bijections and emits one
// graph per connected, self-contraction-free pairing.
func refExpandPairings(spec Spec, ops []Operator, numSrc int, flavors []string,
	quarks, antis map[string][]refQuarkSlot, srcTime, snkTime int, momenta []int,
	bt *BlockTable, nextGraphID *int) ([]*graph.Graph, error) {

	// Node tensors for this momentum/time instantiation.
	nodes := make([]graph.Node, len(ops))
	for i, op := range ops {
		key := BlockKey{Op: op.Name, Momentum: 0, Time: srcTime}
		if i >= numSrc {
			key.Momentum = momenta[i-numSrc]
			key.Time = snkTime
		}
		nodes[i] = graph.Node{ID: i, Tensor: bt.Get(key)}
	}

	var out []*graph.Graph
	edges := []graph.Edge{}
	var recurse func(fi int)
	var emit func()
	emit = func() {
		g := &graph.Graph{ID: *nextGraphID, Nodes: nodes, Edges: append([]graph.Edge(nil), edges...)}
		if !refConnected(g) {
			return
		}
		*nextGraphID++
		out = append(out, g)
	}
	recurse = func(fi int) {
		if fi == len(flavors) {
			emit()
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
					u, v := qs[qi].opIdx, as[ai].opIdx
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
	return out, nil
}

// refConnected reports whether the graph is a single connected component
// (required for a contraction to reduce it to a single product chain).
func refConnected(g *graph.Graph) bool {
	if len(g.Nodes) == 0 {
		return false
	}
	adj := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	seen := make([]bool, len(g.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(g.Nodes)
}

// refSignature returns a canonical string identifying the graph up to node
// relabeling by tensor identity: the sorted multiset of edge tensor-ID
// pairs plus the sorted multiset of node tensor IDs. Two graphs with equal
// signatures perform identical contractions, so the Wick front end uses it
// to deduplicate ("unique contraction graphs").
func refSignature(g *graph.Graph) string {
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

// refDedup returns the unique graphs of gs by refSignature, preserving first-seen
// order.
func refDedup(gs []*graph.Graph) []*graph.Graph {
	seen := make(map[string]bool, len(gs))
	var out []*graph.Graph
	for _, g := range gs {
		sig := refSignature(g)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, g)
	}
	return out
}

// refSpecs are the specs the bundled correlators expand (a1 and f0
// systems, conjugated sinks spelled out), plus two-particle sinks with
// identically named operators — whose momentum assignments (m1, m2) and
// (m2, m1) duplicate each other — a sink operator that reuses a source
// name (one block when the times coincide), a spec whose deduplication
// depends on whether they do, and a baryon.
func refSpecs() []Spec {
	pi0 := func(name string) Operator {
		return Operator{Name: name, Quarks: []Quark{Q("u"), Qbar("u"), Q("d"), Qbar("d")}}
	}
	pi0c := func(name string) Operator {
		return Operator{Name: name, Quarks: []Quark{Qbar("u"), Q("u"), Qbar("d"), Q("d")}}
	}
	a1, a1c := []Operator{Meson("a1", "u", "d")}, []Operator{Meson("a1†", "d", "u")}
	rhopi := []Operator{Meson("rho", "u", "d"), pi0("pi0")}
	rhopic := []Operator{Meson("rho†", "d", "u"), pi0c("pi0†")}
	f0, f0c := []Operator{Meson("f0", "u", "u")}, []Operator{Meson("f0†", "u", "u")}
	pipi := []Operator{Meson("pi+", "u", "d"), Meson("pi-", "d", "u")}
	pipic := []Operator{Meson("pi+†", "d", "u"), Meson("pi-†", "u", "d")}
	kk := []Operator{Meson("K+", "u", "s"), Meson("K-", "s", "u")}
	kkc := []Operator{Meson("K+†", "s", "u"), Meson("K-†", "u", "s")}
	specs := []Spec{
		{Name: "a1->a1", Source: a1, Sink: a1c},
		{Name: "a1->rhopi", Source: a1, Sink: rhopic},
		{Name: "rhopi->a1", Source: rhopi, Sink: a1c},
		{Name: "rhopi->rhopi", Source: rhopi, Sink: rhopic},
		{Name: "f0->f0", Source: f0, Sink: f0c},
		{Name: "f0->pipi", Source: f0, Sink: pipic},
		{Name: "pipi->f0", Source: pipi, Sink: f0c},
		{Name: "pipi->pipi", Source: pipi, Sink: pipic},
		{Name: "KK->pipi", Source: kk, Sink: pipic},
		{Name: "KK->KK", Source: kk, Sink: kkc},
		{Name: "twin sinks", Source: []Operator{pi0("pi0"), pi0("pi0")}, Sink: []Operator{pi0c("X"), pi0c("X")}},
		{Name: "sink named as source", Source: pipi, Sink: []Operator{Meson("pi-", "d", "u"), Meson("pi+", "u", "d")}},
		// Two unique graphs at distinct times, one when the times coincide.
		{Name: "times decide dedup", Source: []Operator{Meson("b", "d", "d"), Meson("a", "u", "d")},
			Sink: []Operator{Meson("b", "d", "d"), Meson("a", "d", "u")}},
		{Name: "nucleon", Source: []Operator{{Name: "N", Quarks: []Quark{Q("u"), Q("u"), Q("d")}}},
			Sink: []Operator{{Name: "N†", Quarks: []Quark{Qbar("u"), Qbar("u"), Qbar("d")}}}},
	}
	for i := range specs {
		specs[i].TensorDim, specs[i].Batch = 8, 2
	}
	return specs
}

// issuedKeys returns the key of every block bt has issued, by tensor ID
// (index 0, never issued, is the zero key): the creation order of the keys,
// decoded from the integer keys and the interned names.
func issuedKeys(bt *BlockTable) []BlockKey {
	names := make([]string, len(bt.ops))
	for name, op := range bt.ops {
		names[op] = name
	}
	keys := make([]BlockKey, bt.NextID())
	for w, id := range bt.blocks {
		keys[id] = BlockKey{Op: names[w>>48], Momentum: int(w >> 32 & 0xffff), Time: int(int32(w))}
	}
	for k, id := range bt.wide {
		keys[id] = BlockKey{Op: names[k.op], Momentum: k.momentum, Time: k.time}
	}
	return keys
}

// expandCall is one Expand call of a sequence run against one table.
type expandCall struct {
	spec             Spec
	srcTime, snkTime int
}

// checkAgainstReference runs calls through Expand and through refExpand,
// each on its own table and graph-ID counter, and requires the same
// result call by call: errors, graph IDs, node descriptors, edge order,
// the counter, and the table's tensors in creation order.
func checkAgainstReference(t *testing.T, label string, calls []expandCall) {
	t.Helper()
	bt, refBT := NewBlockTable(8, 2), NewBlockTable(8, 2)
	var gid, refGid int
	for i, c := range calls {
		at := fmt.Sprintf("%s: call %d (%s, times %d->%d, momenta %d)",
			label, i, c.spec.Name, c.srcTime, c.snkTime, c.spec.Momenta)
		got, err := Expand(c.spec, c.srcTime, c.snkTime, bt, &gid)
		want, refErr := refExpand(c.spec, c.srcTime, c.snkTime, refBT, &refGid)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%s: error %v, reference %v", at, err, refErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d graphs, reference %d", at, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID ||
				!reflect.DeepEqual(got[j].Nodes, want[j].Nodes) ||
				!reflect.DeepEqual(got[j].Edges, want[j].Edges) {
				t.Fatalf("%s: graph %d = %+v, reference %+v", at, j, *got[j], *want[j])
			}
		}
		if gid != refGid {
			t.Fatalf("%s: next graph ID %d, reference %d", at, gid, refGid)
		}
		if bt.NextID() != refBT.NextID() || !reflect.DeepEqual(bt.Tensors(), refBT.Tensors()) ||
			!reflect.DeepEqual(issuedKeys(bt), issuedKeys(refBT)) {
			t.Fatalf("%s: block table diverged from the reference", at)
		}
	}
}

// TestExpandMatchesReference: the stamped template is the old enumeration,
// graph for graph, on a fresh table and on one that has seen the spec,
// other specs and other times before.
func TestExpandMatchesReference(t *testing.T) {
	specs := refSpecs()
	for momenta := 1; momenta <= 3; momenta++ {
		// Each spec alone: first call builds the template, the others stamp
		// it; (2, 2) and (0, 0) take the coinciding-times template.
		for _, s := range specs {
			s.Momenta = momenta
			var calls []expandCall
			for _, times := range [][2]int{{0, 1}, {0, 2}, {0, 1}, {2, 2}, {0, 7}, {0, 0}, {3, 0}} {
				calls = append(calls, expandCall{s, times[0], times[1]})
			}
			checkAgainstReference(t, "alone", calls)
		}
		// All specs interleaved on one table, the way a deck drives it.
		var calls []expandCall
		for snk := 1; snk <= 3; snk++ {
			for _, s := range specs {
				s.Momenta = momenta
				calls = append(calls, expandCall{s, 0, snk})
			}
		}
		checkAgainstReference(t, "interleaved", calls)
	}

	// The template is keyed by content: a renamed spec reuses it, a spec
	// with the same name and other operators must not.
	renamed := specs[3]
	renamed.Name, renamed.Momenta = specs[7].Name, 2
	other := specs[7]
	other.Momenta = 2
	checkAgainstReference(t, "names", []expandCall{{other, 0, 1}, {renamed, 0, 1}, {other, 0, 2}, {renamed, 0, 2}})

	// Error paths leave table and counter alone, before and after a hit.
	good := specs[1]
	good.Momenta = 2
	unbalanced := good
	unbalanced.Sink = []Operator{{Name: "x", Quarks: []Quark{Q("d"), Qbar("u"), Q("u")}}} // one flavor off: one message
	noMomenta := good
	noMomenta.Momenta = 0
	noQuarks := good
	noQuarks.Sink = []Operator{{Name: "empty"}}
	checkAgainstReference(t, "errors", []expandCall{
		{unbalanced, 0, 1}, {good, 0, 1}, {noMomenta, 0, 1}, {noQuarks, 0, 2}, {Spec{}, 0, 1}, {good, 0, 2}})
}

// TestExpandWarmAllocs: once a table holds a spec's template, Expand
// allocates the result — node, edge and graph slabs, the pointer slice,
// the momentum counter — and nothing per graph.
func TestExpandWarmAllocs(t *testing.T) {
	for _, s := range refSpecs() {
		for _, momenta := range []int{1, 3} {
			s.Momenta = momenta
			bt := NewBlockTable(8, 2)
			var gid int
			gs, err := Expand(s, 0, 1, bt, &gid)
			if err != nil {
				t.Fatal(err)
			}
			// Sink time 2 both times: the second round finds its blocks too.
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Expand(s, 0, 2, bt, &gid); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 {
				t.Errorf("%s, momenta %d (%d graphs): %v allocations per warm Expand, want <= 8",
					s.Name, momenta, len(gs), allocs)
			}
		}
	}
}
