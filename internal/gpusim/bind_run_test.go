package gpusim_test

import (
	"context"
	"testing"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestRunBuildsNoSlotTable: sched.Run goes by slots from bind to finish —
// placement, dead-input discards with and without a fault plan, the
// recovery scan after a device loss, and a resume's replay of its
// checkpoint — so it never builds the cluster's id→slot table. Afterwards
// every ID-keyed answer is the slot-keyed one.
func TestRunBuildsNoSlotTable(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 7, Stages: 4, VectorSize: 6, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	recoverable := &fault.Plan{Events: []fault.Event{
		{Kind: fault.TransientTransfer, Failures: 2, Stage: 0, Pair: 1},
		{Kind: fault.DeviceLoss, Device: 1, Stage: 2, Pair: 0},
		{Kind: fault.DeviceRestore, Device: 1, Stage: 3, Pair: 0},
	}}
	for _, plan := range []*fault.Plan{nil, recoverable} {
		var done *sched.Checkpoint
		// The second run resumes from the first one's final checkpoint: it
		// replays every stage, recovery included, from the log.
		for _, resumed := range []bool{false, true} {
			c, err := gpusim.NewCluster(gpusim.MI100(4))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c,
				sched.Options{DiscardDeadInputs: true, FaultPlan: plan, Checkpoint: true, ResumeFrom: done})
			if err != nil {
				t.Fatal(err)
			}
			done = res.Checkpoint
			if plan != nil && (res.Recovery.PairsRescheduled == 0 || res.Recovery.TransientRetries != 2) {
				t.Fatalf("the fault plan did not exercise recovery: %+v", res.Recovery)
			}
			if err := c.Audit(); err != nil {
				t.Fatal(err)
			}
			if c.SlotTableBuilt() {
				t.Errorf("fault plan %v, resumed %v: the run built the id→slot table", plan != nil, resumed)
			}
			for slot, id := range w.TensorIDs() {
				if !c.HoldersMask(id).Equal(c.HoldersAt(slot)) || c.HostHolds(id) != c.HostHoldsAt(slot) {
					t.Errorf("fault plan %v, resumed %v: tensor %d (slot %d): ID-keyed and slot-keyed answers differ", plan != nil, resumed, id, slot)
				}
			}
		}
	}
}

// TestIndexFootprintPerSlot runs a workload of the ladder's sched_scale
// shape — four stages of 4096 pairs, about 37 000 tensor slots — once under
// MICCO on its 512×8 cluster, and bounds what the residency index keeps per
// slot and the block slab per resident copy. Holder sets there never reach
// more than a handful of the 4096 devices; an index that reserved room for
// every device past the inline word would keep 640 bytes a slot, and one
// whose host records kept the tensor's descriptor 75. A block that kept the
// descriptor was 64 bytes a copy.
func TestIndexFootprintPerSlot(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: 4, VectorSize: 4096, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gpusim.NewCluster(gpusim.MI100Nodes(512, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(context.Background(), w, core.NewFixed(core.Bounds{0, 2, 0}), c, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	slots := len(w.TensorIDs())
	if got := c.IndexBytesPerSlot(); slots < 30000 || got > 48 {
		t.Errorf("%d slots: the residency index keeps %.1f bytes a slot, want at most 48", slots, got)
	} else {
		t.Logf("%d slots: %.1f bytes a slot", slots, got)
	}
	if got, copies := c.BlockBytesPerCopy(); copies < 1000 || got > 40 {
		t.Errorf("%d copies: the block slab keeps %.1f bytes a copy, want at most 40", copies, got)
	} else {
		t.Logf("%d copies: %.1f bytes a copy", copies, got)
	}
}
