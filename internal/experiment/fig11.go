package experiment

import (
	"context"
	"fmt"

	"micco/internal/autotune"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Fig11 reproduces the memory-oversubscription study (paper Fig. 11):
// Groute versus MICCO-optimal as per-device pools shrink so that the
// working set is 125% to 200% of aggregate memory, with vector size 64,
// tensor size 384, 50% repeated rate on eight GPUs.
func (h *Harness) Fig11(ctx context.Context) (*Table, error) {
	ratios := []float64{1.25, 1.5, 1.75, 2.0}
	if h.opts.Quick {
		ratios = []float64{1.25, 2.0}
	}
	p, err := h.Predictor(ctx)
	if err != nil {
		return nil, err
	}
	dists := []workload.Distribution{workload.Uniform, workload.Gaussian}
	s := sweep{
		roster: []contender{h.groute(), h.optimal(p)},
		row: func(i int, r []*sched.Result) []string {
			return append(speedupRow(i, r), fmt.Sprintf("%d / %d", r[0].Total.Evictions, r[len(r)-1].Total.Evictions))
		},
		summary: func(sp []float64) []string { return distGeomeans(dists, sp) },
	}
	seed := int64(1100)
	for _, dist := range dists {
		for _, ratio := range ratios {
			seed++
			pt := fitPoint(h.synthConfig(64, 384, 0.5, dist, seed), 8, dist.String(), fmt.Sprintf("%.0f", ratio*100))
			pt.cluster = func(w *workload.Workload) (*gpusim.Cluster, error) {
				return autotune.PressuredCluster(w, 8, ratio)
			}
			s.points = append(s.points, pt)
		}
	}
	t := &Table{
		ID:      "fig11",
		Title:   "Memory oversubscription (GFLOPS); tensor 384, vector 64, repeated rate 50%, 8 GPUs",
		Columns: s.columns([]string{"distribution", "oversub%"}, "speedup", "evictions (Groute/MICCO)"),
		Notes: []string{
			"paper shape: GFLOPS falls as oversubscription grows; MICCO wins up to 1.9x;",
			"geomean 1.2x (Uniform) / 1.4x (Gaussian)",
		},
	}
	return h.measure(ctx, t, s)
}
