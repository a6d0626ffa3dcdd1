package sched_test

// Large-cluster coverage for topology API v2: schedulers must work beyond
// the former 64-device ceiling, the mask path must still match the
// scan-path reference when holder sets spill past the inline word, and numeric
// fingerprints must stay bit-identical across pool widths and
// reclaiming execution modes on a multi-node cluster.

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// largeRoster is every scheduler family in the repo, in name order, each
// constructed fresh per call (schedulers are stateful).
var largeRoster = []struct {
	name string
	mk   func() sched.Scheduler
}{
	{"groute", func() sched.Scheduler { return baseline.NewGroute() }},
	{"hier", func() sched.Scheduler { return hier.New(16, core.Bounds{0, 2, 0}) }},
	{"locality", func() sched.Scheduler { return baseline.NewLocalityOnly() }},
	{"micco", func() sched.Scheduler { return core.NewFixed(core.Bounds{0, 2, 0}) }},
	{"micco-naive", func() sched.Scheduler { return core.NewNaive() }},
	{"roundrobin", func() sched.Scheduler { return baseline.NewRoundRobin() }},
}

// TestLargeClusterAllSchedulers schedules a workload on 256 devices across
// 4 nodes under every scheduler family, and checks each run works and its
// numeric fingerprint is bit-identical across pool widths.
func TestLargeClusterAllSchedulers(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 9, Stages: 3, VectorSize: 24, TensorDim: 6, Batch: 1,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
		ChainRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gpusim.NewCluster(gpusim.MI100Nodes(4, 64))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 256 || c.NumNodes() != 4 {
		t.Fatalf("cluster shape %d devices / %d nodes, want 256/4", c.NumDevices(), c.NumNodes())
	}
	modes := []struct {
		name string
		opts sched.Options
	}{
		{"serial", sched.Options{Numeric: true, NumericSeed: 5, Parallelism: 1}},
		{"parallel", sched.Options{Numeric: true, NumericSeed: 5, Parallelism: 4}},
	}
	// The subtests share one cluster, so they run in one order: each meets
	// the state the one before left, the same on every run.
	for _, sc := range largeRoster {
		mk := sc.mk
		t.Run(sc.name, func(t *testing.T) {
			var fp float64
			var assignments [][]int
			for i, mode := range modes {
				opts := mode.opts
				opts.RecordAssignments = true
				res, err := sched.Run(context.Background(), w, mk(), c, opts)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if res.GFLOPS <= 0 {
					t.Fatalf("%s: degenerate run: %+v", mode.name, res)
				}
				if i == 0 {
					fp = res.NumericFingerprint
					assignments = res.Assignments
					continue
				}
				if res.NumericFingerprint != fp {
					t.Errorf("%s: fingerprint %g != serial %g", mode.name, res.NumericFingerprint, fp)
				}
				if !reflect.DeepEqual(res.Assignments, assignments) {
					t.Errorf("%s: assignments diverge from serial mode", mode.name)
				}
			}
		})
	}
}

// TestWideMaskPathMatchesScanPathReference re-runs the cross-check
// property on a 96-device cluster, where holder sets straddle the 64-bit
// inline/spill seam: the DevSet-based placement path must reproduce the
// scan-path reference bit for bit past the former DeviceMask ceiling.
func TestWideMaskPathMatchesScanPathReference(t *testing.T) {
	w := crossWorkload(t, 31)
	cfg := gpusim.MI100(96)
	// PeerFetch spreads copies wide so residency actually crosses the seam.
	cfg.PeerFetch = true
	run := func(s sched.Scheduler) *sched.Result {
		t.Helper()
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(context.Background(), w, s, c, sched.Options{
			RecordAssignments: true,
			Numeric:           true,
			NumericSeed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range crossCases() {
		lr := run(tc.live())
		rr := run(tc.ref())
		if !reflect.DeepEqual(lr.Assignments, rr.Assignments) {
			t.Errorf("%s: assignments diverge from scan-path reference at 96 devices", tc.name)
			continue
		}
		if lr.NumericFingerprint != rr.NumericFingerprint {
			t.Errorf("%s: fingerprint %g != reference %g", tc.name, lr.NumericFingerprint, rr.NumericFingerprint)
		}
		if lr.Makespan != rr.Makespan {
			t.Errorf("%s: makespan %g != reference %g", tc.name, lr.Makespan, rr.Makespan)
		}
		if lr.Total != rr.Total {
			t.Errorf("%s: device stats diverge:\n %+v\n %+v", tc.name, lr.Total, rr.Total)
		}
	}
}

// TestWatchedWideRunCapsCandidates is a watched flat-MICCO run of the
// sched_scale shape on 4096 devices, where a step-III candidate set runs to
// thousands of devices: every decision record keeps at most
// obs.MaxCandidates of them, in ascending device order, the cap is reached,
// and the run allocates at most 16 MB: 12.9 MB measured, the package's
// after-run audit left out of the window (370 MB when every record listed
// every eligible device).
func TestWatchedWideRunCapsCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16k-pair run on 4096 devices")
	}
	w := wideWorkload(t)
	c, err := gpusim.NewCluster(gpusim.MI100Nodes(512, 8))
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewFixed(core.Bounds{0, 2, 0})
	if _, err := sched.Run(context.Background(), w, s, c, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	sched.WithoutAudit(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := sched.Run(context.Background(), w, s, c, sched.Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	recs := reg.Decisions()
	if len(recs) != w.NumPairs() {
		t.Fatalf("%d decision records for %d pairs", len(recs), w.NumPairs())
	}
	full := 0
	for i := range recs {
		cands := recs[i].Candidates
		if len(cands) > obs.MaxCandidates {
			t.Fatalf("record %d keeps %d candidates, want at most %d", i, len(cands), obs.MaxCandidates)
		}
		for j := 1; j < len(cands); j++ {
			if recs[i].BoundIndex == 2 && cands[j].Device <= cands[j-1].Device {
				t.Fatalf("record %d: step-III candidates out of ascending order: %v", i, cands)
			}
		}
		if len(cands) == obs.MaxCandidates {
			full++
		}
	}
	if full == 0 {
		t.Error("no record reached the cap: the run never had a wide candidate set")
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 16<<20 {
		t.Errorf("the watched run allocated %.1f MB, want at most 16", float64(alloc)/(1<<20))
	}
}
