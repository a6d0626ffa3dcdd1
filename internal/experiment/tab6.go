package experiment

import (
	"context"
	"fmt"

	"micco/internal/gpusim"
	"micco/internal/redstar"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Tab6DeviceMemory is the per-device pool for the real-correlator case
// study. The bundled correlators are scaled-down stand-ins (2-15 GB
// working sets versus the paper's 56 GB-4.6 TB), so the pool is scaled to
// 4 GiB: the f0 functions exceed a single device and spill across the
// node, while al_rhopi fits comfortably, mirroring the spread in the
// paper's Table VI memory-cost column.
const Tab6DeviceMemory int64 = 4 << 30

// Tab6 reproduces the real-world case study (paper Table VI): the three
// correlation functions of the a1 and f0 systems run through the
// Redstar-like front end on eight simulated GPUs, comparing MICCO-optimal
// against Groute.
func (h *Harness) Tab6(ctx context.Context) (*Table, error) {
	p, err := h.Predictor(ctx)
	if err != nil {
		return nil, err
	}
	paper := map[string]string{"al_rhopi": "1.49x", "f0d2": "1.41x", "f0d4": "1.36x"}
	correlators := redstar.Bundled()
	s := sweep{roster: []contender{h.groute(), h.optimal(p)}, row: func(i int, r []*sched.Result) []string {
		return append(speedupRow(i, r), paper[correlators[i].Name])
	}}
	for _, c := range correlators {
		if h.opts.Quick {
			c.TimeSlices = 4
		}
		b, err := c.BuildPlan()
		if err != nil {
			return nil, err
		}
		s.points = append(s.points, point{
			label: []string{c.Name,
				fmt.Sprintf("%d", c.TensorDim),
				fmt.Sprintf("%d", b.NumGraphs),
				fmt.Sprintf("%d", len(b.Plan.Ops)),
				fmt.Sprintf("%.1fG", float64(b.Plan.TotalUniqueBytes())/(1<<30))},
			work: func() (*workload.Workload, error) { return b.Workload, nil },
			cluster: func(*workload.Workload) (*gpusim.Cluster, error) {
				cfg := gpusim.MI100(8)
				cfg.MemoryBytes = Tab6DeviceMemory
				return gpusim.NewCluster(cfg)
			},
		})
	}
	t := &Table{
		ID:    "tab6",
		Title: "Real many-body correlation functions (Redstar front end, 16 time slices, 8 GPUs)",
		Columns: []string{"function", "tensor size", "graphs", "contractions",
			"memory cost", "Groute GF", "MICCO GF", "speedup", "speedup (paper)"},
		Notes: []string{
			"memory cost is the footprint of all hadron blocks and intermediates;",
			"the bundled operator bases are scaled-down stand-ins for the production decks",
		},
	}
	return h.measure(ctx, t, s)
}
