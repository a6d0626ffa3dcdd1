package experiment

import (
	"context"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/sched"
	"micco/internal/workload"
)

// variant is one side of an Ext comparison: a full run of workload w under
// its own cluster configuration and engine options.
type variant func(ctx context.Context, w *workload.Workload) (*sched.Result, error)

// Ext measures the extensions this reproduction adds beyond the paper
// (its "future work" section and DESIGN.md's ablations): the asynchronous
// copy engine, peer-to-peer fetching, liveness-based dead-tensor discard,
// and the hierarchical multi-node scheduler. Each row compares the
// extension against the corresponding default on the same workload: the
// points are the rows, the roster is the (default, extension) pair of
// configurations each row names.
func (h *Harness) Ext(ctx context.Context) (*Table, error) {
	// run runs a fresh scheduler from newSched on a cluster of cfg whose
	// memory fits the workload, after tune (if any) has adjusted it.
	run := func(cfg gpusim.Config, newSched func() sched.Scheduler, tune func(*gpusim.Config, *workload.Workload), opts sched.Options) variant {
		opts.Obs = h.opts.Obs
		return func(ctx context.Context, w *workload.Workload) (*sched.Result, error) {
			cfg := cfg
			cfg.MemoryBytes = fitBytes(w)
			if tune != nil {
				tune(&cfg, w)
			}
			cluster, err := gpusim.NewCluster(cfg)
			if err != nil {
				return nil, err
			}
			return sched.Run(ctx, w, newSched(), cluster, opts)
		}
	}
	// The single-node rows run MICCO at fixed bounds on an eight-GPU node;
	// the multi-node row runs 4 nodes x 2 GPUs, the two-level scheduler
	// against Groute's earliest-device placement.
	node, nodes := gpusim.MI100(8), gpusim.MI100Nodes(4, 2)
	micco := func() sched.Scheduler { return core.NewFixed(core.Bounds{0, 2, 0}) }
	groute := func() sched.Scheduler { return baseline.NewGroute() }
	twoLevel := func() sched.Scheduler { return hier.New(16, core.Bounds{0, 2, 0}) }
	base := run(node, micco, nil, sched.Options{})
	async := func(c *gpusim.Config, _ *workload.Workload) { c.AsyncCopy = true }
	peer := func(c *gpusim.Config, _ *workload.Workload) { c.PeerFetch = true }
	// Dead-tensor discard only matters under memory pressure.
	tight := func(c *gpusim.Config, w *workload.Workload) { c.MemoryBytes = w.TotalUniqueBytes() / 8 }
	common := h.synthConfig(64, 384, 0.5, workload.Uniform, 4000)
	// The node dimension only matters when kernels are heavy enough that
	// one node cannot absorb the whole stream, so the multi-node row uses
	// a compute-heavy, reuse-rich variant (dim 768, 70% repeated).
	heavy := h.synthConfig(32, 768, 0.7, workload.Uniform, 4100)
	rows := []struct {
		name string
		cfg  workload.Config
		pair [2]variant
	}{
		{"async copy engine", common, [2]variant{base, run(node, micco, async, sched.Options{})}},
		{"peer-to-peer fetch", common, [2]variant{base, run(node, micco, peer, sched.Options{})}},
		{"dead-tensor discard (oversubscribed)", common,
			[2]variant{run(node, micco, tight, sched.Options{}), run(node, micco, tight, sched.Options{DiscardDeadInputs: true})}},
		{"multi-node hierarchical scheduling (dim 768, r=70%)", heavy,
			[2]variant{run(nodes, groute, nil, sched.Options{}), run(nodes, twoLevel, nil, sched.Options{})}},
	}
	side := func(name string, j int) contender {
		return contender{[]string{name}, func(ctx context.Context, i int, w *workload.Workload, _ *gpusim.Cluster) ([]*sched.Result, error) {
			r, err := rows[i].pair[j](ctx, w)
			return []*sched.Result{r}, err
		}}
	}
	s := sweep{roster: []contender{side("baseline GF", 0), side("extended GF", 1)}, row: speedupRow}
	for _, row := range rows {
		s.points = append(s.points, point{
			label: []string{row.name},
			work:  func() (*workload.Workload, error) { return workload.Generate(row.cfg) },
		})
	}
	t := &Table{
		ID:      "ext",
		Title:   "Extensions beyond the paper (same workload: vector 64, tensor 384, repeat 50%)",
		Columns: s.columns([]string{"extension"}, "gain"),
		Notes: []string{
			"async copy and peer fetch are the paper's stated future work;",
			"multi-node runs Hier(16) vs Groute on 4 nodes x 2 GPUs; hier trails, as its node level does not score host copies (DESIGN §11)",
		},
	}
	return h.measure(ctx, t, s)
}
