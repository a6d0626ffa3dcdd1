package wick

import (
	"testing"

	"micco/internal/graph"
)

var benchGraphs []*graph.Graph

// BenchmarkExpand measures one Expand call of the rho-pi two-particle
// spec at three momenta (45 unique graphs of 72 connected pairings): cold on a fresh block table,
// so the pairing enumeration runs, and warm on a table that has expanded
// the spec before, cycling over 64 sink times the way a deck does.
func BenchmarkExpand(b *testing.B) {
	spec := Spec{
		Name:   "rhopi->rhopi",
		Source: []Operator{Meson("rho", "u", "d"), {Name: "pi0", Quarks: []Quark{Q("u"), Qbar("u"), Q("d"), Qbar("d")}}},
		Sink: []Operator{Meson("rho†", "d", "u"),
			{Name: "pi0†", Quarks: []Quark{Qbar("u"), Q("u"), Qbar("d"), Q("d")}}},
		Momenta: 3, TensorDim: 128, Batch: 8,
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var gid int
			gs, err := Expand(spec, 0, 1, NewBlockTable(128, 8), &gid)
			if err != nil {
				b.Fatal(err)
			}
			benchGraphs = gs
		}
		b.ReportMetric(float64(len(benchGraphs)), "graphs")
	})
	b.Run("warm", func(b *testing.B) {
		bt := NewBlockTable(128, 8)
		var gid int
		if _, err := Expand(spec, 0, 1, bt, &gid); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gs, err := Expand(spec, 0, 1+i%64, bt, &gid)
			if err != nil {
				b.Fatal(err)
			}
			benchGraphs = gs
		}
		b.ReportMetric(float64(len(benchGraphs)), "graphs")
	})
}
