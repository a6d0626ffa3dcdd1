package redstar

import (
	"runtime"
	"testing"
)

var benchBuild *Build

// BenchmarkBuildPlan measures the whole front end — Wick expansion, both
// dedups, staging and the workload conversion — on the three Table VI
// correlators, on f0d4 at the ladder's deck_plan configuration (64 sink
// times, three momenta: 7 874 pairs) and on f0d4 at six momenta and 256
// sink times (104 450 pairs). Every row reports ns/pair and B/pair, the
// bytes read from runtime.MemStats around the timed loop, so the rows of
// different sizes compare: a front end linear in the deck keeps both flat.
func BenchmarkBuildPlan(b *testing.B) {
	f0d4t64 := F0D4()
	f0d4t64.TimeSlices, f0d4t64.Momenta = 64, 3
	f0d4m6t256 := F0D4()
	f0d4m6t256.TimeSlices, f0d4m6t256.Momenta = 256, 6
	for _, tc := range []struct {
		name string
		c    *Correlator
	}{
		{"al_rhopi", A1RhoPi()},
		{"f0d2", F0D2()},
		{"f0d4_t64", f0d4t64},
		{"f0d4_m6_t256", f0d4m6t256},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			bytes0 := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build, err := tc.c.BuildPlan()
				if err != nil {
					b.Fatal(err)
				}
				benchBuild = build
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			pairs := float64(b.N * len(benchBuild.Plan.Ops))
			b.ReportMetric(float64(benchBuild.NumGraphs), "graphs")
			b.ReportMetric(float64(len(benchBuild.Plan.Ops)), "pairs")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
			b.ReportMetric(float64(ms.TotalAlloc-bytes0)/pairs, "B/pair")
		})
	}
}
