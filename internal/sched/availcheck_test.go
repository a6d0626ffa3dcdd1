package sched_test

// Exactness of the availability index: core's step III and Algorithm 2 read
// tournament-tree summaries where refMICCO (crosscheck_test.go) walks every
// device for every pair, and the two must place every pair on the same
// device, draw the same random numbers and publish the same decision
// records — on clusters wide enough that step III's tie sets run to
// hundreds of devices, under each Algorithm 2 policy, with dead inputs
// discarded or kept, with operands staged through the host off another
// device (which moves the *source* device's clock), across a mid-stage
// device loss, memory shrink and restore, and with step III's bound both
// below step II's (holders never eligible) and above it (holders eligible,
// lifted into the index under their own projection).

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

type availCase struct {
	devs    int
	scarce  bool
	discard bool
	faults  bool
	bounds  core.Bounds
	obsOn   bool
}

func (tc availCase) String() string {
	return fmt.Sprintf("devs=%d/scarce=%v/discard=%v/faults=%v/bounds=%s/obs=%v",
		tc.devs, tc.scarce, tc.discard, tc.faults, tc.bounds, tc.obsOn)
}

// availWorkload has one pair per device per stage (BalanceNum 2, so a
// device leaves step III's set with its first pair under bound 0), chained
// operands so later stages fetch outputs that exist only on the device
// that produced them, and enough repeats that steps I and II interleave
// with step III.
func availWorkload(t *testing.T, devs int) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: int64(devs), Stages: 3, VectorSize: devs, TensorDim: 4,
		Batch: 1, Rank: tensor.RankMeson, RepeatRate: 0.5,
		Dist: workload.Uniform, ChainRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// availFaults loses a device a third of the way into stage 1 (recovery
// re-places its outputs mid-stage), shrinks another's pool at the halfway
// mark, and restores the lost one inside stage 2.
func availFaults(devs int) *fault.Plan {
	return &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceLoss, Stage: 1, Pair: devs / 3, Device: devs / 2},
		{Kind: fault.MemShrink, Stage: 1, Pair: devs / 2, Device: 3, Factor: 0.5},
		{Kind: fault.DeviceRestore, Stage: 2, Pair: devs / 4, Device: devs / 2},
	}}
}

func availRun(t *testing.T, tc availCase, w *workload.Workload, s sched.Scheduler) (*sched.Result, []obs.DecisionRecord) {
	t.Helper()
	cfg := gpusim.MI100Nodes(tc.devs/64, 64) // PeerFetch off: peers stage through the host
	if tc.scarce {
		// Room for three pairs' worth of tensors: the third stage projects
		// past capacity and Algorithm 2 switches to the memory order.
		cfg.MemoryBytes = 8 * w.Inputs[0].Bytes()
	}
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.Options{
		RecordAssignments: true,
		Numeric:           true,
		NumericSeed:       7,
		DiscardDeadInputs: tc.discard,
	}
	if tc.faults {
		opts.FaultPlan = availFaults(tc.devs)
	}
	var reg *obs.Registry
	if tc.obsOn {
		reg = obs.New()
		opts.Obs = reg
	}
	res, err := sched.Run(context.Background(), w, s, c, opts)
	if err != nil {
		t.Fatalf("%s: %s: %v", tc, s.Name(), err)
	}
	return res, reg.Decisions()
}

// sameDecision compares two records field by field; reflect.DeepEqual over
// candidate lists hundreds long, thousands of times, dominates the test.
func sameDecision(a, b *obs.DecisionRecord) bool {
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	x, y := *a, *b
	x.Candidates, y.Candidates = nil, nil
	return reflect.DeepEqual(x, y)
}

// availCases is the full product of the five two-valued factors at 256
// devices. At 1024 the scan-path reference costs four times as much per
// run (and far more under the race detector), so that size runs the
// half-of-a-half fraction scarce = bounds xor discard, obs = bounds xor
// faults: eight runs in which every pair of factors still meets in all
// four combinations.
func availCases() []availCase {
	var cases []availCase
	for mask := 0; mask < 32; mask++ {
		tc := availCase{devs: 256, bounds: core.Bounds{0, 2, 0},
			scarce: mask&1 != 0, discard: mask&2 != 0, faults: mask&4 != 0, obsOn: mask&8 != 0}
		if mask&16 != 0 {
			tc.bounds = core.Bounds{0, 0, 4}
		}
		cases = append(cases, tc)
	}
	for mask := 0; mask < 8; mask++ {
		wide, discard, faults := mask&1 != 0, mask&2 != 0, mask&4 != 0
		tc := availCase{devs: 1024, bounds: core.Bounds{0, 2, 0},
			scarce: wide != discard, discard: discard, faults: faults, obsOn: wide != faults}
		if wide {
			tc.bounds = core.Bounds{0, 0, 4}
		}
		cases = append(cases, tc)
	}
	return cases
}

func TestAvailIndexMatchesScanPathReference(t *testing.T) {
	var stepIII, evictions, wideStepIII int64
	workloads := map[int]*workload.Workload{256: availWorkload(t, 256), 1024: availWorkload(t, 1024)}
	for _, tc := range availCases() {
		w, bounds := workloads[tc.devs], tc.bounds
		live, ref := core.NewFixed(bounds), newRefMICCO(bounds)
		lr, ld := availRun(t, tc, w, live)
		rr, rd := availRun(t, tc, w, ref)
		if !reflect.DeepEqual(lr.Assignments, rr.Assignments) {
			t.Errorf("%s: assignments diverge from scan-path reference", tc)
			continue
		}
		if lr.NumericFingerprint != rr.NumericFingerprint {
			t.Errorf("%s: fingerprint %g != reference %g", tc, lr.NumericFingerprint, rr.NumericFingerprint)
		}
		if lr.Makespan != rr.Makespan || lr.Total != rr.Total {
			t.Errorf("%s: makespan/stats diverge: %g %+v vs %g %+v", tc, lr.Makespan, lr.Total, rr.Makespan, rr.Total)
		}
		if lr.Recovery != rr.Recovery {
			t.Errorf("%s: recovery stats %+v != reference %+v", tc, lr.Recovery, rr.Recovery)
		}
		if ref.misclassified != 0 {
			t.Errorf("%s: %d records' reuse pattern differs from the reference classification", tc, ref.misclassified)
		}
		if len(ld) != len(rd) {
			t.Fatalf("%s: %d decisions vs %d in reference", tc, len(ld), len(rd))
		}
		for i := range ld {
			if !sameDecision(&ld[i], &rd[i]) {
				// The records are the registries' own (read-only): print copies.
				l, r := ld[i], rd[i]
				l.Candidates, r.Candidates = nil, nil
				t.Errorf("%s: decision %d diverges (candidates elided):\n %+v\n %+v", tc, i, l, r)
				break
			}
			if ld[i].BoundIndex == 2 {
				stepIII++
			}
			if ld[i].Policy == obs.PolicyMemoryEviction {
				evictions++
			}
		}
		wideStepIII += ref.wideStepIII
	}
	// The property is vacuous unless step III, wide candidate sets — step
	// III among 128 eligible devices or more, which the capped records no
	// longer show, so the reference counts them — and the memory-eviction
	// policy all actually occurred.
	if stepIII == 0 || wideStepIII == 0 || evictions == 0 {
		t.Errorf("coverage too thin: %d step-III decisions, %d of them among >=128 eligible devices, %d eviction-policy uses",
			stepIII, wideStepIII, evictions)
	}
}
