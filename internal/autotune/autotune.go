// Package autotune builds the reuse-bound regression stack of the MICCO
// paper (Section IV-C): it generates a training corpus by sweeping the
// candidate reuse-bound settings over randomized synthetic workloads and
// labeling each with the bounds that maximize simulated throughput, trains
// the regression models of Table IV on it, and wraps the winner as the
// online per-stage BoundsPredictor used by MICCO-optimal.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/mlearn"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// CandidateBounds are the thirteen reuse-bound settings the paper sweeps
// (Fig. 8), with each bound ranging over 0..2.
var CandidateBounds = []core.Bounds{
	{0, 0, 0},
	{1, 0, 0}, {2, 0, 0},
	{0, 1, 0}, {0, 2, 0},
	{0, 0, 1}, {0, 0, 2},
	{1, 1, 1}, {2, 2, 2},
	{1, 2, 0}, {0, 2, 2},
	{2, 0, 2}, {2, 2, 0},
}

// TrainingCandidates returns the reuse-bound settings swept when labeling
// one corpus sample, following the paper's training procedure ("reuse
// bounds range from 0 to numTensor - balanceNum"): the thirteen small
// Fig. 8 settings plus uniform settings (k,k,k) on a geometric grid up to
// the full per-stage slack.
func TrainingCandidates(numTensor, numGPU int) []core.Bounds {
	out := append([]core.Bounds(nil), CandidateBounds...)
	maxSlack := MaxSlack(numTensor, numGPU)
	seen := make(map[core.Bounds]bool, len(out))
	for _, b := range out {
		seen[b] = true
	}
	for k := 3; k <= maxSlack; k = k*3/2 + 1 {
		b := core.Bounds{k, k, k}
		if !seen[b] {
			out = append(out, b)
			seen[b] = true
		}
	}
	full := core.Bounds{maxSlack, maxSlack, maxSlack}
	if maxSlack > 0 && !seen[full] {
		out = append(out, full)
	}
	return out
}

// CorpusConfig controls training-corpus generation.
type CorpusConfig struct {
	// Samples is the corpus size; the paper uses 300.
	Samples int
	// Seed drives all randomness in corpus generation.
	Seed int64
	// NumGPU is the simulated device count (default 8).
	NumGPU int
	// Stages is the number of stages per sampled workload (default 4;
	// small keeps labeling fast while exposing cross-stage residency).
	Stages int
	// Batch is the hadron-node batch count (default 8).
	Batch int
	// MemoryBytes is the fixed per-device memory pool used while labeling
	// (default 1 GiB). Fixed — not scaled to each workload — so that, as
	// on the paper's real 32 GiB devices, the eviction regime is entered
	// or avoided depending on the data characteristics themselves; that
	// cliff is a major source of the non-linearity the regression model
	// must capture.
	MemoryBytes int64
	// Replicas is the number of independently seeded workloads averaged
	// per corpus sample (default 8); averaging suppresses the seed noise
	// in the throughput surface so labels reflect the data
	// characteristics rather than one draw.
	Replicas int
	// Parallelism bounds the worker pool that labels corpus samples.
	// Samples are independent sweeps over private clusters, so they fan
	// out freely; all randomness is pre-drawn sequentially and results
	// are collected by index, making the corpus bit-for-bit identical at
	// any setting. 0 selects runtime.GOMAXPROCS(0); 1 labels serially.
	Parallelism int
}

func (c *CorpusConfig) fillDefaults() {
	if c.Samples <= 0 {
		c.Samples = 300
	}
	if c.NumGPU <= 0 {
		c.NumGPU = 8
	}
	if c.Stages <= 0 {
		c.Stages = 4
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.MemoryBytes <= 0 {
		c.MemoryBytes = 1 << 30
	}
	if c.Replicas <= 0 {
		c.Replicas = 8
	}
}

// vectorSizes, tensorDims, repeatRates span the paper's evaluation grid.
var (
	vectorSizes = []int{8, 16, 32, 64}
	tensorDims  = []int{128, 256, 384, 768}
	repeatRates = []float64{0.25, 0.5, 0.75, 1.0}
)

// CorpusSample records the provenance of one corpus row, for analyses
// beyond model training (e.g. the Fig. 5 correlation heatmap).
type CorpusSample struct {
	// Features are the sample's data characteristics.
	Features workload.Features
	// Bounds are the throughput-maximizing reuse bounds (soft labels).
	Bounds [3]float64
	// BoundFracs are Bounds normalized by the stage's maximum slack:
	// scale-free values comparable across vector sizes.
	BoundFracs [3]float64
	// BestGFLOPS is the best throughput observed in the sweep.
	BestGFLOPS float64
}

// BuildCorpus sweeps reuse-bound settings over cfg.Samples randomized
// synthetic workloads. Each corpus row has the four data-characteristic
// features (vector size, tensor size, distribution bias, measured repeated
// rate) and the throughput-maximizing bounds as its three targets.
func BuildCorpus(ctx context.Context, cfg CorpusConfig) (*mlearn.Dataset, error) {
	ds, _, err := BuildCorpusDetailed(ctx, cfg)
	return ds, err
}

// corpusDraw is the pre-drawn randomness of one corpus sample: the
// workload configuration and one generator seed per replica. Drawing
// everything from a single sequential stream before fanning out keeps the
// corpus independent of the pool size.
type corpusDraw struct {
	wcfg  workload.Config
	seeds []int64
}

// BuildCorpusDetailed is BuildCorpus, additionally returning per-sample
// provenance. Samples are labeled on a cfg.Parallelism-sized worker pool;
// the corpus is bit-for-bit identical at every pool size.
func BuildCorpusDetailed(ctx context.Context, cfg CorpusConfig) (*mlearn.Dataset, []CorpusSample, error) {
	cfg.fillDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	draws := make([]corpusDraw, cfg.Samples)
	for i := range draws {
		draws[i].wcfg = workload.Config{
			Stages:     cfg.Stages,
			VectorSize: vectorSizes[rng.Intn(len(vectorSizes))],
			TensorDim:  tensorDims[rng.Intn(len(tensorDims))],
			Batch:      cfg.Batch,
			Rank:       tensor.RankMeson,
			RepeatRate: repeatRates[rng.Intn(len(repeatRates))],
			Dist:       workload.Distribution(rng.Intn(2)),
		}
		draws[i].seeds = make([]int64, cfg.Replicas)
		for r := range draws[i].seeds {
			draws[i].seeds[r] = rng.Int63()
		}
	}
	samples := make([]CorpusSample, cfg.Samples)
	err := ForEachPoint(ctx, cfg.Parallelism, cfg.Samples, func(ctx context.Context, i int) error {
		s, err := labelSample(ctx, cfg, draws[i])
		if err != nil {
			return fmt.Errorf("autotune: sample %d: %w", i, err)
		}
		samples[i] = s
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ds := &mlearn.Dataset{}
	for i := range samples {
		// The model trains on the scale-free fractions; PredictBounds
		// rescales by the live stage's slack at inference time.
		ds.Add(samples[i].Features.AsSlice(), samples[i].BoundFracs[:])
	}
	return ds, samples, nil
}

// labelSample sweeps the candidate bounds over one sample's replicas and
// condenses the measurements into its features and soft labels.
func labelSample(ctx context.Context, cfg CorpusConfig, d corpusDraw) (CorpusSample, error) {
	wcfg := d.wcfg
	cands := TrainingCandidates(2*wcfg.VectorSize, cfg.NumGPU)
	var label [3]float64
	var rate, best float64
	for rep := 0; rep < cfg.Replicas; rep++ {
		wcfg.Seed = d.seeds[rep]
		w, err := workload.Generate(wcfg)
		if err != nil {
			return CorpusSample{}, err
		}
		ccfg := gpusim.MI100(cfg.NumGPU)
		ccfg.MemoryBytes = poolFloor(w, cfg.MemoryBytes)
		cluster, err := gpusim.NewCluster(ccfg)
		if err != nil {
			return CorpusSample{}, err
		}
		res, err := SweepBounds(ctx, w, cluster, cands, sched.Options{})
		if err != nil {
			return CorpusSample{}, err
		}
		gflops := make([]float64, len(res))
		for i, r := range res {
			gflops[i] = r.GFLOPS
			best = math.Max(best, r.GFLOPS)
		}
		soft := SoftLabel(cands, gflops, LabelTemperature)
		for j := range label {
			label[j] += soft[j] / float64(cfg.Replicas)
		}
		rate += w.MeasuredRepeatRate() / float64(cfg.Replicas)
	}
	f := workload.Features{
		VectorSize: float64(wcfg.VectorSize),
		TensorDim:  float64(wcfg.TensorDim),
		DistBias:   boolToFloat(wcfg.Dist.Biased()),
		RepeatRate: rate,
	}
	sample := CorpusSample{Features: f, Bounds: label, BestGFLOPS: best}
	// A one-device node has no slack to spend: its fractions stay zero, as
	// PredictBounds assumes when it rescales by a zero slack.
	if slack := float64(MaxSlack(2*wcfg.VectorSize, cfg.NumGPU)); slack > 0 {
		for j := range label {
			sample.BoundFracs[j] = label[j] / slack
		}
	}
	return sample, nil
}

// SweepBounds runs workload w under each fixed reuse-bound setting of cands
// in turn on cluster c (sched.Run resets it before every run) and returns
// one result per setting, in order. It is the one bound sweep: corpus
// labeling, the Fig. 8 study and the tests all measure through it.
func SweepBounds(ctx context.Context, w *workload.Workload, c *gpusim.Cluster, cands []core.Bounds, opts sched.Options) ([]*sched.Result, error) {
	out := make([]*sched.Result, len(cands))
	for i, b := range cands {
		res, err := sched.Run(ctx, w, core.NewFixed(b), c, opts)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// poolFloor raises a per-device pool of bytes, if need be, to the smallest
// one that holds a single contraction of w: two inputs plus one output of
// its largest tensor.
func poolFloor(w *workload.Workload, bytes int64) int64 {
	for _, d := range w.Inputs {
		bytes = max(bytes, 3*d.Bytes())
	}
	return bytes
}

// ForEachPoint runs fn(ctx, i) for every index of an n-point sweep on a pool
// of parallelism workers (0 selects runtime.GOMAXPROCS(0), 1 runs the
// points one at a time in order). It is the one worker pool: the corpus
// builder labels its samples on it and the experiment harness measures its
// sweep points on it. Each fn must be independent of the others (own
// cluster, own scheduler) and write to index-addressed slots, so results
// are identical at any parallelism. The first error stops the remaining
// points and the lowest-index error is returned — except that a point
// which merely observed the pool's cancellation never outranks the error
// that caused it. Cancellation of ctx itself surfaces as ctx.Err().
func ForEachPoint(ctx context.Context, parallelism, n int, fn func(ctx context.Context, i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < min(parallelism, n); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for poolCtx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(poolCtx, i); errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	var cancelled error // lowest-index point that stopped on a cancellation
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		if cancelled == nil {
			cancelled = err
		}
	}
	if cancelled != nil {
		return cancelled // no point failed: the one that stopped says where
	}
	return ctx.Err()
}

// MaxSlack is the largest meaningful reuse bound for a stage of numTensor
// tensor slots on numGPU devices: assigning everything beyond perfect
// balance to one GPU ("0 to numTensor - balanceNum" in the paper).
func MaxSlack(numTensor, numGPU int) int {
	if numTensor <= 0 || numGPU <= 0 {
		return 0
	}
	s := numTensor - (numTensor+numGPU-1)/numGPU
	if s < 0 {
		s = 0
	}
	return s
}

// LabelTemperature is the relative throughput scale of SoftLabel's
// weighting: settings within about this fraction of the best throughput
// contribute to the label centroid.
const LabelTemperature = 0.01

// SoftLabel condenses a bound sweep into one continuous training label per
// bound: the softmax-weighted centroid of the candidate settings, weighted
// by how close each comes to the maximum throughput. Raw argmax labels are
// noisy because the throughput surface has a broad near-optimal plateau —
// many settings tie within measurement jitter, so the argmax is effectively
// random among them and no model can predict it. The plateau centroid is a
// deterministic, smooth function of the data characteristics, and any
// setting on the plateau performs equivalently when the rounded prediction
// is used online.
func SoftLabel(cands []core.Bounds, gflops []float64, temp float64) [3]float64 {
	max := 0.0
	for _, g := range gflops {
		if g > max {
			max = g
		}
	}
	var label [3]float64
	if max == 0 {
		return label
	}
	var wsum float64
	for i, g := range gflops {
		if i >= len(cands) {
			break
		}
		w := math.Exp((g - max) / (max * temp))
		wsum += w
		for j := 0; j < 3; j++ {
			label[j] += w * float64(cands[i][j])
		}
	}
	for j := range label {
		label[j] /= wsum
	}
	return label
}

// PressuredCluster builds an MI100 cluster whose per-device pools are sized
// so that workload w's working set is pressure times aggregate memory
// (pressure > 1 forces oversubscription). pressure <= 0 keeps the stock
// 32 GiB pools.
func PressuredCluster(w *workload.Workload, numGPU int, pressure float64) (*gpusim.Cluster, error) {
	cfg := gpusim.MI100(numGPU)
	if pressure > 0 {
		per := float64(w.TotalUniqueBytes()) / float64(numGPU) / pressure
		if per < 1 {
			per = 1
		}
		cfg.MemoryBytes = poolFloor(w, int64(math.Ceil(per)))
	}
	return gpusim.NewCluster(cfg)
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
