package wick

import (
	"fmt"
	"reflect"
	"testing"

	"micco/internal/graph"
)

// The reference: Expand as it stood before expansion became a stamped
// template — the full enumeration on every call. Kept verbatim (names
// prefixed with ref) as the oracle the test below compares with. It keeps
// the connected, deduplicated graphs through graph.Connected and
// graph.Dedup, which graph's own tests hold to a search and to the string
// signature they replaced.

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
	return graph.Dedup(all), nil
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
		if !g.Connected() {
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
	specs := specCorpus()
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
