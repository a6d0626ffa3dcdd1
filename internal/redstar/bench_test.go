package redstar

import "testing"

var benchBuild *Build

// BenchmarkBuildPlan measures the whole front end — Wick expansion, both
// dedups, staging and the workload conversion — on the three Table VI
// correlators; f0d4_t64 is the configuration the ladder's deck_plan
// workload runs (64 sink times, three momenta).
func BenchmarkBuildPlan(b *testing.B) {
	f0d4t64 := F0D4()
	f0d4t64.TimeSlices, f0d4t64.Momenta = 64, 3
	for _, tc := range []struct {
		name string
		c    *Correlator
	}{
		{"al_rhopi", A1RhoPi()},
		{"f0d2", F0D2()},
		{"f0d4_t64", f0d4t64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build, err := tc.c.BuildPlan()
				if err != nil {
					b.Fatal(err)
				}
				benchBuild = build
			}
			b.ReportMetric(float64(benchBuild.NumGraphs), "graphs")
			b.ReportMetric(float64(len(benchBuild.Plan.Ops)), "pairs")
		})
	}
}
