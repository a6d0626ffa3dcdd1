package experiment

import (
	"context"
	"fmt"

	"micco/internal/core"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Tab5 reproduces Table V: MICCO-optimal's scheduling overhead versus the
// total execution time, for ten vectors of size 64 at tensor size 384 and
// 50% repeated rate, in both distributions. As in the paper, the overhead
// is the (real) time spent inside the scheduler while the total is the
// workload's execution time — here, simulated time.
// Tab5 always measures with the points serial — real scheduling overhead
// on a host busy with sibling goroutines would not reproduce the paper's
// quiet-machine numbers — so Options.Parallelism is ignored here.
func (h *Harness) Tab5(ctx context.Context) (*Table, error) {
	p, err := h.Predictor(ctx)
	if err != nil {
		return nil, err
	}
	// One scheduler serves both rows (the points are serial, so sharing is
	// safe): its tie-break stream runs on from the first row into the
	// second, and the golden pins the totals that gives.
	opt := core.NewOptimal(p)
	shared := h.scheduled("MICCO-optimal", func(int) sched.Scheduler { return opt })
	s := sweep{roster: []contender{shared}, serial: true, row: func(_ int, r []*sched.Result) []string {
		overheadMS := float64(r[0].SchedOverhead.Microseconds()) / 1000
		totalMS := r[0].Makespan * 1000
		return []string{
			fmt.Sprintf("%.2f", overheadMS),
			fmt.Sprintf("%.2f", totalMS),
			fmt.Sprintf("%.1f%%", overheadMS/totalMS*100),
		}
	}}
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Gaussian} {
		cfg := h.synthConfig(64, 384, 0.5, dist, 550+int64(dist))
		cfg.Stages = SynthStages // ten vectors even in quick mode
		s.points = append(s.points, fitPoint(cfg, 8, dist.String()))
	}
	t := &Table{
		ID:      "tab5",
		Title:   "Execution time (ms); tensor 384, vector 64, repeated rate 50%, sum of 10 vectors",
		Columns: []string{"distribution", "scheduling overhead (ms)", "total time (ms)", "overhead %"},
		Notes: []string{
			"paper: 8.27 ms / 4925.73 ms (Uniform), 8.52 ms / 1550.88 ms (Gaussian)",
			"overhead is host wall time; total is simulated execution time",
		},
	}
	return h.measure(ctx, t, s)
}
