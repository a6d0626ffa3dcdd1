package sched

import (
	"context"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// fixedScheduler assigns every pair to one device.
type fixedScheduler struct{ dev int }

func (f *fixedScheduler) Name() string                       { return "fixed" }
func (f *fixedScheduler) BeginStage(*Context)                {}
func (f *fixedScheduler) Assign(workload.Pair, *Context) int { return f.dev }

// spreadScheduler alternates devices per pair.
type spreadScheduler struct{ n int }

func (s *spreadScheduler) Name() string        { return "spread" }
func (s *spreadScheduler) BeginStage(*Context) {}
func (s *spreadScheduler) Assign(_ workload.Pair, ctx *Context) int {
	d := s.n % ctx.NumGPU
	s.n++
	return d
}

// badScheduler returns an out-of-range device.
type badScheduler struct{}

func (badScheduler) Name() string                       { return "bad" }
func (badScheduler) BeginStage(*Context)                {}
func (badScheduler) Assign(workload.Pair, *Context) int { return 99 }

func smallWorkload(t *testing.T, stages, vecSize int) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 3, Stages: stages, VectorSize: vecSize, TensorDim: 16,
		Batch: 1, Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func cluster(t *testing.T, n int) *gpusim.Cluster {
	t.Helper()
	c, err := gpusim.NewCluster(gpusim.MI100(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunBasic(t *testing.T) {
	w := smallWorkload(t, 4, 8)
	c := cluster(t, 2)
	res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{RecordAssignments: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.GFLOPS <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.Total.Kernels != int64(w.NumPairs()) {
		t.Errorf("kernels = %d, want %d", res.Total.Kernels, w.NumPairs())
	}
	if res.Total.FLOPs != w.TotalFLOPs() {
		t.Errorf("FLOPs = %d, want %d", res.Total.FLOPs, w.TotalFLOPs())
	}
	if len(res.Assignments) != len(w.Stages) {
		t.Errorf("assignment stages = %d, want %d", len(res.Assignments), len(w.Stages))
	}
	for si, st := range w.Stages {
		if len(res.Assignments[si]) != len(st.Pairs) {
			t.Errorf("stage %d assignments = %d, want %d", si, len(res.Assignments[si]), len(st.Pairs))
		}
	}
	if len(res.PerDevice) != 2 {
		t.Errorf("PerDevice = %d, want 2", len(res.PerDevice))
	}
	if res.SchedOverhead < 0 {
		t.Error("negative scheduling overhead")
	}
}

func TestRunSingleDeviceSerializesWork(t *testing.T) {
	w := smallWorkload(t, 2, 6)
	c := cluster(t, 3)
	all, err := Run(context.Background(), w, &fixedScheduler{dev: 1}, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only device 1 should have kernel time.
	for i, d := range all.PerDevice {
		if i == 1 && d.Kernels == 0 {
			t.Error("device 1 should have run kernels")
		}
		if i != 1 && d.Kernels != 0 {
			t.Errorf("device %d should be idle", i)
		}
	}
	spread, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spread.Makespan >= all.Makespan {
		t.Errorf("spreading should beat one device: %v vs %v", spread.Makespan, all.Makespan)
	}
}

func TestRunRejectsBadScheduler(t *testing.T) {
	w := smallWorkload(t, 1, 2)
	c := cluster(t, 2)
	if _, err := Run(context.Background(), w, badScheduler{}, c, Options{}); err == nil {
		t.Error("invalid device assignment: want error")
	}
	if _, err := Run(context.Background(), nil, badScheduler{}, c, Options{}); err == nil {
		t.Error("nil workload: want error")
	}
	if _, err := Run(context.Background(), w, nil, c, Options{}); err == nil {
		t.Error("nil scheduler: want error")
	}
	if _, err := Run(context.Background(), w, badScheduler{}, nil, Options{}); err == nil {
		t.Error("nil cluster: want error")
	}
}

func TestRunIsRepeatable(t *testing.T) {
	w := smallWorkload(t, 3, 8)
	c := cluster(t, 2)
	r1, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.GFLOPS != r2.GFLOPS || r1.Total != r2.Total {
		t.Error("Run is not repeatable on a reused cluster")
	}
}

func TestNumericFingerprintSchedulerIndependent(t *testing.T) {
	w := smallWorkload(t, 2, 4)
	c := cluster(t, 2)
	opts := Options{Numeric: true, NumericSeed: 5}
	r1, err := Run(context.Background(), w, &fixedScheduler{dev: 0}, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), w, &spreadScheduler{}, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumericFingerprint == 0 {
		t.Fatal("numeric fingerprint should be non-zero")
	}
	if r1.NumericFingerprint != r2.NumericFingerprint {
		t.Errorf("fingerprints differ across schedulers: %v vs %v",
			r1.NumericFingerprint, r2.NumericFingerprint)
	}
}

func TestDiscardDeadInputsReducesResidency(t *testing.T) {
	w := smallWorkload(t, 3, 8)
	c := cluster(t, 2)
	if _, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{DiscardDeadInputs: true}); err != nil {
		t.Fatal(err)
	}
	// After the run every input marked dead must be gone from all devices.
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			if p.LastUse[0] && !c.HoldersMask(p.A.ID).Empty() {
				t.Fatalf("tensor %d should have been discarded", p.A.ID)
			}
		}
	}
}

func TestContextProjectedMem(t *testing.T) {
	w := smallWorkload(t, 1, 2)
	c := cluster(t, 2)
	c.Reset()
	for _, d := range w.Inputs {
		c.RegisterHostTensor(d)
	}
	ctx := &Context{Cluster: c, NumGPU: 2, StageLoad: make([]int, 2)}
	p := w.Stages[0].Pairs[0]
	want := p.Out.Bytes() + p.A.Bytes()
	if p.B.ID != p.A.ID {
		want += p.B.Bytes()
	}
	if got := ctx.ProjectedMem(0, p); got != want {
		t.Errorf("ProjectedMem = %d, want %d", got, want)
	}
	// Make A resident; projection should drop by A's bytes.
	if err := c.EnsureResident(0, p.A); err != nil {
		t.Fatal(err)
	}
	if got := ctx.ProjectedMem(0, p); got != want-p.A.Bytes()+c.Device(0).MemUsed() {
		t.Errorf("ProjectedMem after residency = %d", got)
	}
	if ctx.ProjectedMem(0, p) > c.Device(0).Capacity() {
		t.Error("tiny pair should not oversubscribe a 32 GiB pool")
	}
}

func TestSpeedup(t *testing.T) {
	a := &Result{GFLOPS: 200}
	b := &Result{GFLOPS: 100}
	if got := Speedup(a, b); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if got := Speedup(a, &Result{}); got != 0 {
		t.Errorf("Speedup vs zero baseline = %v, want 0", got)
	}
}

func TestRunChainedWorkload(t *testing.T) {
	// Intermediates consumed downstream exercise the host-staging path
	// when the producer and consumer devices differ.
	w, err := workload.Generate(workload.Config{
		Seed: 9, Stages: 6, VectorSize: 8, TensorDim: 32, Batch: 1,
		Rank: tensor.RankMeson, RepeatRate: 0.7, ChainRate: 0.7,
		Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster(t, 3)
	res, err := Run(context.Background(), w, &spreadScheduler{}, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 || res.Total.Kernels != int64(w.NumPairs()) {
		t.Fatalf("chained run degenerate: %+v", res.Total)
	}
	// Consuming a chained intermediate on another device requires a D2H
	// staging write-back under the host-staged data path.
	if res.Total.D2HBytes == 0 {
		t.Error("expected host staging of intermediates across devices")
	}
}
