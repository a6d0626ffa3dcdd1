package experiment

import (
	"context"
	"fmt"

	"micco/internal/workload"
)

// Fig9 reproduces the scalability study (paper Fig. 9): Groute versus
// MICCO-optimal throughput as the device count grows from one to eight,
// with vector size 64, tensor size 384, 50% repeated rate, in both
// distributions. The one shared predictor rescales each point's bounds by
// the device count of the cluster it places on.
func (h *Harness) Fig9(ctx context.Context) (*Table, error) {
	gpuCounts := []int{1, 2, 4, 8}
	if h.opts.Quick {
		gpuCounts = []int{1, 4, 8}
	}
	p, err := h.Predictor(ctx)
	if err != nil {
		return nil, err
	}
	s := sweep{roster: []contender{h.groute(), h.optimal(p)}, row: speedupRow}
	seed := int64(900)
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Gaussian} {
		seed++
		for _, n := range gpuCounts {
			s.points = append(s.points, fitPoint(h.synthConfig(64, 384, 0.5, dist, seed), n, dist.String(), fmt.Sprintf("%d", n)))
		}
	}
	t := &Table{
		ID:      "fig9",
		Title:   "Scalability (GFLOPS); tensor 384, vector 64, repeated rate 50%",
		Columns: s.columns([]string{"distribution", "GPUs"}, "speedup"),
		Notes: []string{
			"paper shape: sublinear scaling (7877 GFLOPS at 1 GPU to 13043 at 8 in (a));",
			"speedup grows with GPU count (1.18x at 2 GPUs to 1.68x at 8), up to 1.96x",
		},
	}
	return h.measure(ctx, t, s)
}
