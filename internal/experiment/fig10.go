package experiment

import (
	"context"
	"fmt"

	"micco/internal/workload"
)

// Fig10 reproduces the tensor-size study (paper Fig. 10): Groute versus
// MICCO-optimal at tensor sizes 128-768, with vector size 64 and 50%
// repeated rate on eight GPUs.
func (h *Harness) Fig10(ctx context.Context) (*Table, error) {
	dims := []int{128, 256, 384, 768}
	if h.opts.Quick {
		dims = []int{128, 768}
	}
	p, err := h.Predictor(ctx)
	if err != nil {
		return nil, err
	}
	s := sweep{roster: []contender{h.groute(), h.optimal(p)}, row: speedupRow}
	seed := int64(1000)
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Gaussian} {
		for _, dim := range dims {
			seed++
			s.points = append(s.points, fitPoint(h.synthConfig(64, dim, 0.5, dist, seed), 8, dist.String(), fmt.Sprintf("%d", dim)))
		}
	}
	t := &Table{
		ID:      "fig10",
		Title:   "Impact of tensor size (GFLOPS); vector 64, repeated rate 50%, 8 GPUs",
		Columns: s.columns([]string{"distribution", "tensor size"}, "speedup"),
		Notes: []string{
			"paper shape: MICCO wins at every size, 1.35x to 1.92x; throughput grows with tensor size",
		},
	}
	return h.measure(ctx, t, s)
}
