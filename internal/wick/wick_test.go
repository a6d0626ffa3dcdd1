package wick

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"micco/internal/graph"
)

func pionSpec() Spec {
	// pi+ two-point function: source (u dbar), sink (d ubar) after
	// conjugation — one u line and one d line between the two operators.
	return Spec{
		Name:      "pion2pt",
		Source:    []Operator{Meson("pi_src", "u", "d")},
		Sink:      []Operator{Meson("pi_snk", "d", "u")},
		Momenta:   1,
		TensorDim: 16,
		Batch:     1,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := pionSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},
		{Source: []Operator{Meson("a", "u", "d")}, Momenta: 1, TensorDim: 4, Batch: 1},
		func() Spec { s := pionSpec(); s.Momenta = 0; return s }(),
		func() Spec { s := pionSpec(); s.TensorDim = 0; return s }(),
		func() Spec { s := pionSpec(); s.Sink = []Operator{Meson("x", "u", "u")}; return s }(),
		func() Spec { s := pionSpec(); s.Sink = []Operator{{Name: "empty"}}; return s }(),
		func() Spec {
			s := pionSpec()
			s.Sink = []Operator{{Name: "anon", Quarks: []Quark{Q("")}}}
			return s
		}(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
		if _, err := Expand(s, 0, 1, NewBlockTable(4, 1), new(int)); err == nil {
			t.Errorf("Expand accepted bad spec %d", i)
		}
	}
	// Two unbalanced flavors: the first to appear (Source, then Sink) is
	// named, on every call.
	two := Spec{Source: []Operator{Meson("a", "s", "c")}, Sink: []Operator{Meson("b", "u", "d")}, Momenta: 1, TensorDim: 4, Batch: 1}
	for range 16 {
		if err := two.Validate(); err == nil || err.Error() != `wick: flavor "s" unbalanced by 1` {
			t.Fatalf("two unbalanced flavors: %v", err)
		}
	}
}

func TestQuarkHelpers(t *testing.T) {
	if Q("u").Bar || Q("u").Flavor != "u" {
		t.Error("Q helper wrong")
	}
	if !Qbar("s").Bar || Qbar("s").Flavor != "s" {
		t.Error("Qbar helper wrong")
	}
	m := Meson("pi", "u", "d")
	if len(m.Quarks) != 2 || m.Quarks[0].Bar || !m.Quarks[1].Bar {
		t.Error("Meson helper wrong")
	}
}

func TestExpandPion(t *testing.T) {
	bt := NewBlockTable(16, 1)
	var gid int
	gs, err := Expand(pionSpec(), 0, 3, bt, &gid)
	if err != nil {
		t.Fatal(err)
	}
	// One u pairing x one d pairing, both cross-operator: one graph with
	// two nodes and two parallel quark lines.
	if len(gs) != 1 {
		t.Fatalf("graphs = %d, want 1", len(gs))
	}
	g := gs[0]
	if len(g.Nodes) != 2 || len(g.Edges) != 2 {
		t.Errorf("pion graph has %d nodes, %d edges; want 2, 2", len(g.Nodes), len(g.Edges))
	}
	if bt.Len() != 2 {
		t.Errorf("block table has %d blocks, want 2", bt.Len())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestExpandSharedBlocksAcrossTimeSlices(t *testing.T) {
	bt := NewBlockTable(16, 1)
	var gid int
	g3, err := Expand(pionSpec(), 0, 3, bt, &gid)
	if err != nil {
		t.Fatal(err)
	}
	g5, err := Expand(pionSpec(), 0, 5, bt, &gid)
	if err != nil {
		t.Fatal(err)
	}
	// The source block at time 0 must be the same tensor in both.
	src3 := g3[0].Nodes[0].Tensor.ID
	src5 := g5[0].Nodes[0].Tensor.ID
	if src3 != src5 {
		t.Errorf("source blocks differ across sink times: %d vs %d", src3, src5)
	}
	// Sink blocks at different times must differ.
	if g3[0].Nodes[1].Tensor.ID == g5[0].Nodes[1].Tensor.ID {
		t.Error("sink blocks at different times should be distinct")
	}
	if bt.Len() != 3 {
		t.Errorf("blocks = %d, want 3 (one source + two sinks)", bt.Len())
	}
}

func TestExpandTwoParticleSink(t *testing.T) {
	// a1 -> rho pi: one source meson, two sink mesons sharing flavors;
	// multiple pairings produce multiple unique connected graphs.
	spec := Spec{
		Name:   "a1_rhopi",
		Source: []Operator{Meson("a1", "u", "d")},
		Sink: []Operator{
			Meson("rho", "d", "u"),
			{Name: "pi", Quarks: []Quark{Q("u"), Qbar("u"), Q("d"), Qbar("d")}},
		},
		Momenta:   2,
		TensorDim: 16,
		Batch:     1,
	}
	bt := NewBlockTable(16, 1)
	var gid int
	gs, err := Expand(spec, 0, 4, bt, &gid)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) < 2 {
		t.Fatalf("expected multiple unique graphs, got %d", len(gs))
	}
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Error("disconnected graph emitted")
		}
		for _, e := range g.Edges {
			if e.U == e.V {
				t.Error("self-contraction emitted")
			}
		}
	}
	// Unique signatures only.
	seen := map[string]bool{}
	for _, g := range gs {
		sig := g.Signature()
		if seen[sig] {
			t.Error("duplicate graph after Dedup")
		}
		seen[sig] = true
	}
	// Graphs from this expansion feed directly into a valid plan.
	p, err := graph.BuildPlan(gs, bt.NextID())
	if err != nil {
		t.Fatal(err)
	}
	if p.SharedOps == 0 && len(gs) > 2 {
		t.Log("note: no shared ops across graphs (acceptable but unusual)")
	}
	for _, g := range gs {
		if !p.Finals[g.ID].Valid() {
			t.Errorf("graph %d has no final", g.ID)
		}
	}
}

func TestExpandDeterministicIDs(t *testing.T) {
	run := func() []uint64 {
		bt := NewBlockTable(16, 1)
		var gid int
		gs, err := Expand(pionSpec(), 0, 2, bt, &gid)
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		for _, g := range gs {
			for _, n := range g.Nodes {
				ids = append(ids, n.Tensor.ID)
			}
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic expansion")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic block IDs")
		}
	}
}

func TestBlockTable(t *testing.T) {
	bt := NewBlockTable(8, 2)
	k1 := BlockKey{Op: "pi", Momentum: 0, Time: 0}
	d1 := bt.Get(k1)
	d2 := bt.Get(k1)
	if d1.ID != d2.ID {
		t.Error("same key should return same tensor")
	}
	d3 := bt.Get(BlockKey{Op: "pi", Momentum: 1, Time: 0})
	if d3.ID == d1.ID {
		t.Error("different momentum should get a new tensor")
	}
	if bt.Len() != 2 || bt.NextID() != 3 {
		t.Errorf("Len=%d NextID=%d", bt.Len(), bt.NextID())
	}
	ts := bt.Tensors()
	if len(ts) != 2 || ts[0].ID != 1 || ts[1].ID != 2 {
		t.Errorf("Tensors = %v", ts)
	}
	if ts[0].Dim != 8 || ts[0].Batch != 2 {
		t.Error("block shape wrong")
	}
}

// TestBlockTableKeyRange: keys past what one word packs — a momentum or
// time out of range, an operator numbered past 2^16 — are blocks like any
// other: one ID per key, issued in request order, found again on repeat.
func TestBlockTableKeyRange(t *testing.T) {
	bt := NewBlockTable(8, 2)
	// Fill the packable operator numbers, so "late" is numbered past them.
	for i := 0; i < 1<<16; i++ {
		bt.intern(fmt.Sprint("op", i))
	}
	keys := []BlockKey{
		{Op: "pi", Momentum: 0, Time: 0},
		{Op: "pi", Momentum: 0, Time: -1},
		{Op: "pi", Momentum: -1, Time: 0},
		{Op: "pi", Momentum: 1<<16 - 1, Time: 1<<31 - 1},
		{Op: "pi", Momentum: 1 << 16, Time: 0},
		{Op: "pi", Momentum: 0, Time: 1 << 31},
		{Op: "pi", Momentum: 0, Time: -1<<31 - 1},
		{Op: "pi", Momentum: 0, Time: -1 << 31},
		{Op: "late", Momentum: 0, Time: 0},
		{Op: "late", Momentum: 1, Time: 0},
	}
	for round := 0; round < 2; round++ {
		for i, k := range keys {
			if got := bt.Get(k).ID; got != uint64(i+1) {
				t.Errorf("round %d: %+v has ID %d, want %d", round, k, got, i+1)
			}
		}
	}
	if got := issuedKeys(bt)[1:]; !reflect.DeepEqual(got, keys) {
		t.Errorf("issued keys %+v, want %+v", got, keys)
	}
}

// Property: random flavor-balanced meson specs always expand into valid,
// connected, deduplicated graphs whose blocks come from the table.
func TestExpandPropertyRandomSpecs(t *testing.T) {
	flavors := []string{"u", "d", "s"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build 1-2 source and 1-2 sink mesons over random flavors, then
		// patch balance by mirroring the source content at the sink.
		numSrc := 1 + rng.Intn(2)
		var src, snk []Operator
		for i := 0; i < numSrc; i++ {
			q := flavors[rng.Intn(len(flavors))]
			qb := flavors[rng.Intn(len(flavors))]
			src = append(src, Meson(fmt.Sprintf("src%d", i), q, qb))
			// Mirror at the sink to balance flavors.
			snk = append(snk, Meson(fmt.Sprintf("snk%d", i), qb, q))
		}
		spec := Spec{
			Name: "prop", Source: src, Sink: snk,
			Momenta: 1 + rng.Intn(2), TensorDim: 6, Batch: 1,
		}
		if err := spec.Validate(); err != nil {
			return false
		}
		bt := NewBlockTable(6, 1)
		var gid int
		gs, err := Expand(spec, 0, 1+rng.Intn(4), bt, &gid)
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		for _, g := range gs {
			if err := g.Validate(); err != nil {
				return false
			}
			if !g.Connected() {
				return false
			}
			sig := g.Signature()
			if seen[sig] {
				return false
			}
			seen[sig] = true
			for _, n := range g.Nodes {
				if n.Tensor.ID == 0 || n.Tensor.ID >= bt.NextID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Error(err)
	}
}

// Property: expanding the same spec at more sink times only adds sink
// blocks; source blocks are shared (block count grows sub-linearly).
func TestExpandBlockSharingProperty(t *testing.T) {
	spec := pionSpec()
	bt := NewBlockTable(16, 1)
	var gid int
	var counts []int
	for ts := 1; ts <= 6; ts++ {
		if _, err := Expand(spec, 0, ts, bt, &gid); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, bt.Len())
	}
	// First slice creates source+sink blocks; each later slice adds only
	// the sink block (1 per slice for the pion).
	for i := 1; i < len(counts); i++ {
		if counts[i]-counts[i-1] != 1 {
			t.Fatalf("block growth %v: want exactly one new block per slice", counts)
		}
	}
}

// specCorpus holds the specs the bundled correlators expand (a1 and f0
// systems, conjugated sinks spelled out), plus two-particle sinks with
// identically named operators — whose momentum assignments (m1, m2) and
// (m2, m1) duplicate each other — a sink operator that reuses a source
// name (one block when the times coincide), a spec whose deduplication
// depends on whether they do, and a baryon.
func specCorpus() []Spec {
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

// TestExpandWarmAllocs: once a table holds a spec's template, Expand
// allocates the result — node, edge and graph slabs, the pointer slice,
// the momentum counter — and nothing per graph.
func TestExpandWarmAllocs(t *testing.T) {
	for _, s := range specCorpus() {
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

// TestExpandIntoBuffer: a deck's expansion into one Buffer, reset at every
// sink time, yields Expand's graphs call for call — IDs, nodes and edges,
// and the same table afterwards — and once a time's blocks exist, a reset
// and a re-expansion of that time allocate nothing.
func TestExpandIntoBuffer(t *testing.T) {
	for momenta := 1; momenta <= 3; momenta++ {
		specs := specCorpus()
		for i := range specs {
			specs[i].Momenta = momenta
		}
		bt, bufBT := NewBlockTable(8, 2), NewBlockTable(8, 2)
		var gid, bufGid int
		var buf Buffer
		expandTime := func(snk int) error {
			buf.Reset()
			for _, s := range specs {
				if err := ExpandInto(&buf, s, 0, snk, bufBT, &bufGid); err != nil {
					return err
				}
			}
			return nil
		}
		for snk := 1; snk <= 3; snk++ {
			var want []*graph.Graph
			for _, s := range specs {
				gs, err := Expand(s, 0, snk, bt, &gid)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, gs...)
			}
			if err := expandTime(snk); err != nil {
				t.Fatal(err)
			}
			got := buf.Graphs()
			if len(got) != len(want) || gid != bufGid {
				t.Fatalf("momenta %d, time %d: %d graphs to ID %d, Expand %d to ID %d", momenta, snk, len(got), bufGid, len(want), gid)
			}
			for j := range want {
				if got[j].ID != want[j].ID || !reflect.DeepEqual(got[j].Nodes, want[j].Nodes) ||
					!reflect.DeepEqual(got[j].Edges, want[j].Edges) {
					t.Fatalf("momenta %d, time %d: graph %d = %+v, Expand %+v", momenta, snk, j, *got[j], *want[j])
				}
			}
			if !reflect.DeepEqual(issuedKeys(bt), issuedKeys(bufBT)) {
				t.Fatalf("momenta %d, time %d: block tables diverged", momenta, snk)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := expandTime(3); err != nil {
				t.Fatal(err)
			}
			buf.Graphs()
		})
		if allocs != 0 {
			t.Errorf("momenta %d: %v allocations per warm reset and re-expansion, want 0", momenta, allocs)
		}
	}
}
