package experiment

import (
	"context"
	"fmt"

	"micco/internal/autotune"
	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/workload"
)

// point is one measurement site of a sweep: the leading cells of its row,
// how to make its workload and how to size the cluster its contenders
// share (nil when every contender sizes its own, as in Ext).
type point struct {
	label   []string
	work    func() (*workload.Workload, error)
	cluster func(*workload.Workload) (*gpusim.Cluster, error)
}

// contender is one roster entry: the columns it fills and how it measures
// point i — workload w on the point's cluster c — with one result per
// column.
type contender struct {
	cols []string
	run  func(ctx context.Context, i int, w *workload.Workload, c *gpusim.Cluster) ([]*sched.Result, error)
}

// sweep is one figure or table as data.
type sweep struct {
	points []point
	roster []contender
	// serial measures the points one at a time whatever the pool size
	// (Tab. 5: host wall-clock cells need an unloaded host).
	serial bool
	// row formats the cells that follow point i's label from its results,
	// one per roster column in roster order.
	row func(i int, r []*sched.Result) []string
	// summary, when set, turns the per-point speedups into the notes that
	// close the table (geomeans, maxima).
	summary func(speedups []float64) []string
}

// columns returns lead, then the roster's columns, then tail.
func (s sweep) columns(lead []string, tail ...string) []string {
	for _, k := range s.roster {
		lead = append(lead, k.cols...)
	}
	return append(lead, tail...)
}

// measure runs the sweep and completes t with one row per point and the
// summary notes. Points fan across the harness pool, each on its own
// cluster with its contenders in roster order, and results are collected
// by [point][roster column], so the table is byte-identical at any
// Parallelism. It is the only caller of the pool in this package.
func (h *Harness) measure(ctx context.Context, t *Table, s sweep) (*Table, error) {
	parallelism := h.opts.Parallelism
	if s.serial {
		parallelism = 1
	}
	out := make([][]*sched.Result, len(s.points))
	err := autotune.ForEachPoint(ctx, parallelism, len(s.points), func(ctx context.Context, i int) (err error) {
		if out[i], err = s.at(ctx, i); err != nil {
			err = fmt.Errorf("point %d %v: %w", i, s.points[i].label, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, len(out))
	for i, pt := range s.points {
		t.AddRow(append(pt.label, s.row(i, out[i])...)...)
		speedups[i] = speedup(out[i])
	}
	if s.summary != nil {
		t.Notes = append(t.Notes, s.summary(speedups)...)
	}
	return t, nil
}

// at measures point i: its workload, its cluster, then every contender in
// roster order.
func (s sweep) at(ctx context.Context, i int) ([]*sched.Result, error) {
	pt := s.points[i]
	w, err := pt.work()
	if err != nil {
		return nil, err
	}
	var c *gpusim.Cluster
	if pt.cluster != nil {
		if c, err = pt.cluster(w); err != nil {
			return nil, err
		}
	}
	var out []*sched.Result
	for _, k := range s.roster {
		r, err := k.run(ctx, i, w, c)
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	return out, nil
}

// fitPoint is a synthetic point whose n-GPU cluster holds the whole
// working set with FitHeadroom slack, as on the paper's testbed.
func fitPoint(cfg workload.Config, n int, label ...string) point {
	return point{
		label: label,
		work:  func() (*workload.Workload, error) { return workload.Generate(cfg) },
		cluster: func(w *workload.Workload) (*gpusim.Cluster, error) {
			c := gpusim.MI100(n)
			c.MemoryBytes = fitBytes(w)
			return gpusim.NewCluster(c)
		},
	}
}

// fitBytes is the per-device pool that holds w's working set with
// FitHeadroom slack.
func fitBytes(w *workload.Workload) int64 {
	return int64(FitHeadroom * float64(w.TotalUniqueBytes()))
}

// scheduled is the usual contender: column name, filled by running the
// scheduler mk makes for point i on the point's cluster with the harness's
// observability registry (if any) attached. mk must return a fresh
// scheduler per call: core schedulers carry per-run tie-break state, so
// concurrent points must not share one.
func (h *Harness) scheduled(name string, mk func(i int) sched.Scheduler) contender {
	return contender{[]string{name}, func(ctx context.Context, i int, w *workload.Workload, c *gpusim.Cluster) ([]*sched.Result, error) {
		r, err := sched.Run(ctx, w, mk(i), c, sched.Options{Obs: h.opts.Obs})
		return []*sched.Result{r}, err
	}}
}

// groute is the baseline every speedup is taken over; it leads a roster.
func (h *Harness) groute() contender {
	return h.scheduled("Groute", func(int) sched.Scheduler { return baseline.NewGroute() })
}

// optimal is MICCO-optimal bound to the trained predictor p; it closes a
// roster. The caller trains p before fanning out, so the points share one
// predictor instead of serializing on the harness's lazy init.
func (h *Harness) optimal(p *autotune.Predictor) contender {
	return h.scheduled("MICCO-optimal", func(int) sched.Scheduler { return core.NewOptimal(p) })
}

// speedup is the roster's last contender over its first (MICCO-optimal
// over Groute).
func speedup(r []*sched.Result) float64 { return r[len(r)-1].GFLOPS / r[0].GFLOPS }

// gflops formats one throughput cell per result, followed by tail.
func gflops(r []*sched.Result, tail ...string) []string {
	cells := make([]string, 0, len(r)+len(tail))
	for _, x := range r {
		cells = append(cells, fmt.Sprintf("%.0f", x.GFLOPS))
	}
	return append(cells, tail...)
}

// speedupRow is the common row: every contender's GFLOPS, then the speedup.
func speedupRow(_ int, r []*sched.Result) []string {
	return gflops(r, fmt.Sprintf("%.2fx", speedup(r)))
}

// distGeomeans is the summary line of a sweep whose points are grouped by
// distribution in equal runs: one measured geomean speedup per group.
func distGeomeans(dists []workload.Distribution, sp []float64) []string {
	per := len(sp) / len(dists)
	notes := make([]string, len(dists))
	for di, dist := range dists {
		notes[di] = fmt.Sprintf("%s geomean speedup (measured): %.2fx", dist, geoMean(sp[di*per:(di+1)*per]))
	}
	return notes
}
