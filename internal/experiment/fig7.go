package experiment

import (
	"context"
	"fmt"
	"slices"

	"micco/internal/core"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Fig7 reproduces the overall-performance sweep (paper Fig. 7): throughput
// of Groute, MICCO-naive and MICCO-optimal across both distributions
// (panels a-d Uniform, e-h Gaussian), vector sizes 8-64 and repeated rates
// 25-100%, with tensor size 384 on eight GPUs. The speedup column is the
// paper's blue star: MICCO-optimal over Groute.
func (h *Harness) Fig7(ctx context.Context) (*Table, error) {
	vectorSizes := []int{8, 16, 32, 64}
	rates := []float64{0.25, 0.5, 0.75, 1.0}
	if h.opts.Quick {
		vectorSizes = []int{16, 64}
		rates = []float64{0.5, 1.0}
	}
	p, err := h.Predictor(ctx)
	if err != nil {
		return nil, err
	}
	naive := h.scheduled("MICCO-naive", func(int) sched.Scheduler { return core.NewNaive() })
	dists := []workload.Distribution{workload.Uniform, workload.Gaussian}
	s := sweep{roster: []contender{h.groute(), naive, h.optimal(p)}, row: speedupRow, summary: func(sp []float64) []string {
		return append(distGeomeans(dists, sp), fmt.Sprintf("max speedup (measured): %.2fx", slices.Max(sp)))
	}}
	seed := int64(700)
	for _, dist := range dists {
		for _, v := range vectorSizes {
			for _, rate := range rates {
				seed++
				s.points = append(s.points, fitPoint(h.synthConfig(v, 384, rate, dist, seed), 8,
					dist.String(), fmt.Sprintf("%d", v), fmt.Sprintf("%.0f", rate*100)))
			}
		}
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Overall performance (GFLOPS); tensor size 384, 8 GPUs",
		Columns: s.columns([]string{"distribution", "vector", "repeat%"}, "speedup(opt/Groute)"),
		Notes: []string{
			"paper shape: MICCO wins everywhere; up to 2.25x; geomean 1.57x (Uniform) / 1.65x (Gaussian)",
		},
	}
	return h.measure(ctx, t, s)
}
