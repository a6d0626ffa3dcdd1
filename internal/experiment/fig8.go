package experiment

import (
	"context"
	"fmt"

	"micco/internal/autotune"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Fig8 reproduces the reuse-bound study (paper Fig. 8): GFLOPS of all
// thirteen small reuse-bound settings on three cases — (1) vector 64 at
// 50% repeated rate, (2) vector 16 at 25%, (3) vector 32 at 75% — at
// tensor size 384 on eight GPUs, in both distributions. Its roster is one
// contender filling thirteen columns: the bound sweep over the point's
// cluster.
func (h *Harness) Fig8(ctx context.Context) (*Table, error) {
	cases := []struct {
		name string
		v    int
		rate float64
	}{
		{"case1 (v=64, r=50%)", 64, 0.5},
		{"case2 (v=16, r=25%)", 16, 0.25},
		{"case3 (v=32, r=75%)", 32, 0.75},
	}
	dists := []workload.Distribution{workload.Uniform, workload.Gaussian}
	if h.opts.Quick {
		cases = cases[:2]
		dists = dists[:1]
	}
	bounds := contender{run: func(ctx context.Context, _ int, w *workload.Workload, c *gpusim.Cluster) ([]*sched.Result, error) {
		return autotune.SweepBounds(ctx, w, c, autotune.CandidateBounds, sched.Options{Obs: h.opts.Obs})
	}}
	for _, b := range autotune.CandidateBounds {
		bounds.cols = append(bounds.cols, b.String())
	}
	s := sweep{roster: []contender{bounds}, row: func(_ int, r []*sched.Result) []string {
		best := 0
		for j := range r {
			if r[j].GFLOPS > r[best].GFLOPS {
				best = j
			}
		}
		return gflops(r, fmt.Sprintf("%s @ %.0f", autotune.CandidateBounds[best], r[best].GFLOPS))
	}}
	seed := int64(800)
	for _, dist := range dists {
		for _, c := range cases {
			seed++
			s.points = append(s.points, fitPoint(h.synthConfig(c.v, 384, c.rate, dist, seed), 8, dist.String(), c.name))
		}
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Impact of reuse bounds (GFLOPS per setting); tensor 384, 8 GPUs",
		Columns: s.columns([]string{"distribution", "case"}, "best"),
		Notes: []string{
			"paper shape: the optimal setting shifts with vector size, repeated rate and distribution",
			"paper best: 9753 GFLOPS at (0,2,0) in case 1 (a); 5869 GFLOPS at (0,2,2) in case 3 (b)",
		},
	}
	return h.measure(ctx, t, s)
}
