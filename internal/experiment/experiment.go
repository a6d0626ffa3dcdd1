// Package experiment regenerates every table and figure of the MICCO
// paper's evaluation (Section V): the Spearman correlation heatmap
// (Fig. 5), the overall-performance sweeps (Fig. 7), the reuse-bound
// study (Fig. 8), scalability (Fig. 9), tensor-size (Fig. 10) and
// memory-oversubscription (Fig. 11) analyses, the regression-model
// comparison (Table IV), the scheduling-overhead measurement (Table V),
// and the real-correlator case study (Table VI).
//
// Fig. 7-11, Tables V-VI and Ext share one shape — a grid of workloads x a
// roster of schedulers — so each is a sweep value (points, roster, row
// formatter; see sweep.go) handed to the one driver, Harness.measure; the
// corpus analyses (Fig. 5, Table IV) read the training corpus directly.
// Each emits a Table whose rows mirror the series the paper plots.
// Absolute GFLOPS differ from the authors' MI100 testbed (the substrate
// here is a simulator); the comparisons the paper draws — who wins, by
// what factor, in which direction each knob moves — are the reproduction
// targets.
package experiment

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"micco/internal/autotune"
	"micco/internal/mlearn"
	"micco/internal/obs"
	"micco/internal/stats"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// CorpusMemory is the fixed per-device pool used while labeling the
// training corpus: small enough that the eviction regime is entered or
// avoided depending on the data characteristics, which is the cliff the
// regression model must learn (see autotune.CorpusConfig.MemoryBytes).
const CorpusMemory int64 = 4 << 30

// FitHeadroom sizes the per-device pools of the synthetic experiments:
// each device gets FitHeadroom times the workload working set, mirroring
// the paper's testbed where the synthetic datasets fit a single 32 GiB
// device (oversubscription is studied separately in Fig. 11).
const FitHeadroom = 1.1

// SynthStages is the number of sequential vectors per synthetic run
// (Table V measures a "sum of 10 vectors").
const SynthStages = 10

// SynthBatch is the hadron-block batch count of the synthetic workloads.
const SynthBatch = 8

// Options configures a harness.
type Options struct {
	// Quick shrinks sweeps and the training corpus for fast runs
	// (benchmarks, smoke tests). Full mode reproduces the paper's sizes.
	Quick bool
	// Seed drives every random choice in the harness.
	Seed int64
	// Parallelism bounds the worker pool that fans the independent points
	// of a sweep (one scheduler x workload x device-count measurement)
	// across goroutines. Each point runs on its own cluster and scheduler
	// instance and rows are collected by point index, so rendered tables
	// are byte-identical at any setting. 0 selects runtime.GOMAXPROCS(0);
	// 1 runs points one at a time. Tab5 ignores it: measuring real
	// scheduling overhead requires an unloaded host.
	Parallelism int
	// Obs, when non-nil, attaches this registry to every experiment run:
	// all sweep points feed its counters, histograms, decision records and
	// (if one is attached) its flight recorder. The registry aggregates
	// across points — and across concurrent points under Parallelism — so
	// it profiles the whole invocation, not one run. Rendered tables are
	// unaffected (observability never changes scheduling).
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 2022
	}
}

// Harness runs experiments, sharing one trained reuse-bound predictor.
type Harness struct {
	opts Options

	mu        sync.Mutex
	corpus    *mlearn.Dataset
	samples   []autotune.CorpusSample
	predictor *autotune.Predictor
}

// New returns a harness with the given options.
func New(opts Options) *Harness {
	opts.fill()
	return &Harness{opts: opts}
}

// Options returns the harness's effective options.
func (h *Harness) Options() Options { return h.opts }

// corpusConfig returns the training-corpus configuration (the paper's 300
// samples, or a reduced set in quick mode).
func (h *Harness) corpusConfig() autotune.CorpusConfig {
	cfg := autotune.CorpusConfig{
		Seed:        h.opts.Seed,
		NumGPU:      8,
		MemoryBytes: CorpusMemory,
	}
	if h.opts.Quick {
		cfg.Samples = 80
		cfg.Stages = 3
		cfg.Replicas = 4
	}
	return cfg
}

// Corpus lazily builds the training corpus. The build fans corpus samples
// across Options.Parallelism workers.
func (h *Harness) Corpus(ctx context.Context) (*mlearn.Dataset, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.corpus != nil {
		return h.corpus, nil
	}
	cfg := h.corpusConfig()
	cfg.Parallelism = h.opts.Parallelism
	ds, samples, err := autotune.BuildCorpusDetailed(ctx, cfg)
	if err != nil {
		return nil, err
	}
	h.corpus = ds
	h.samples = samples
	return ds, nil
}

// CorpusSamples lazily builds the corpus and returns its per-sample
// provenance (used by the Fig. 5 heatmap).
func (h *Harness) CorpusSamples(ctx context.Context) ([]autotune.CorpusSample, error) {
	if _, err := h.Corpus(ctx); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples, nil
}

// Predictor lazily trains the Random Forest reuse-bound predictor
// (MICCO-optimal's model).
func (h *Harness) Predictor(ctx context.Context) (*autotune.Predictor, error) {
	corpus, err := h.Corpus(ctx)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.predictor == nil {
		p, err := autotune.Train(corpus, autotune.ForestModel, 0.2, h.opts.Seed)
		if err != nil {
			return nil, err
		}
		h.predictor = p
	}
	return h.predictor, nil
}

// synthConfig builds a synthetic workload configuration on the paper's
// grid.
func (h *Harness) synthConfig(vectorSize, tensorDim int, rate float64, dist workload.Distribution, seedOffset int64) workload.Config {
	stages := SynthStages
	if h.opts.Quick {
		stages = 4
	}
	return workload.Config{
		Seed:       h.opts.Seed + seedOffset,
		Stages:     stages,
		VectorSize: vectorSize,
		TensorDim:  tensorDim,
		Batch:      SynthBatch,
		Rank:       tensor.RankMeson,
		RepeatRate: rate,
		Dist:       dist,
	}
}

// experiments lists every runnable experiment: the paper's, in paper
// order, then "ext".
var experiments = []struct {
	id  string
	run func(*Harness, context.Context) (*Table, error)
}{
	{"fig5", (*Harness).Fig5}, {"tab4", (*Harness).Tab4}, {"fig7", (*Harness).Fig7},
	{"tab5", (*Harness).Tab5}, {"fig8", (*Harness).Fig8}, {"fig9", (*Harness).Fig9},
	{"fig10", (*Harness).Fig10}, {"fig11", (*Harness).Fig11}, {"tab6", (*Harness).Tab6},
	{"ext", (*Harness).Ext},
}

// IDs lists the paper's experiment identifiers in paper order ("ext", the
// extensions beyond the paper, runs by name only).
func IDs() []string {
	var ids []string
	for _, e := range experiments {
		if e.id != "ext" {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// RunExperiment dispatches one experiment by ID. ctx cancels the run
// promptly, including any in-flight sweep points.
func (h *Harness) RunExperiment(ctx context.Context, id string) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, e := range experiments {
		if e.id == strings.ToLower(id) {
			return e.run(h, ctx)
		}
	}
	return nil, fmt.Errorf("experiment: unknown id %q (have %v plus \"ext\")", id, IDs())
}

// RunAll runs every experiment in paper order.
func (h *Harness) RunAll(ctx context.Context) ([]*Table, error) {
	var out []*Table
	for _, id := range IDs() {
		t, err := h.RunExperiment(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s\n%s\n", t.ID, t.Title, line(t.Columns), strings.Repeat("-", total))
	for _, row := range t.Rows {
		fmt.Fprintln(&b, line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (quotes around cells
// containing commas).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	for _, cells := range append([][]string{t.Columns}, t.Rows...) {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			out[i] = c
		}
		fmt.Fprintln(&b, strings.Join(out, ","))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// geoMean computes the geometric mean of vs, ignoring non-positive values.
func geoMean(vs []float64) float64 {
	var pos []float64
	for _, v := range vs {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	return stats.GeoMean(pos)
}
