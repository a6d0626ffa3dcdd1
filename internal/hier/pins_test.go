package hier_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestHierPlacementPins pins hier's placements and makespan where level 1
// has something to get wrong: the ladder's 512-node cluster, a cluster
// whose last node is partial (a smaller limit than its peers), and a whole
// node lost mid-stage (recovery re-placement pushes nodes past their
// limit). The values were recorded on the commit before level 1 left its
// node scans; a change that moves one has moved a placement.
func TestHierPlacementPins(t *testing.T) {
	nodes3 := gpusim.MI100Nodes(5, 3)
	nodes3.NumDevices = 14 // nodes 0-3 hold 3 devices, node 4 holds 2
	lossOfNode1 := &fault.Plan{}
	for dev := 4; dev < 8; dev++ {
		lossOfNode1.Events = append(lossOfNode1.Events,
			fault.Event{Kind: fault.DeviceLoss, Stage: 1, Pair: 20, Device: dev})
	}
	for _, tc := range []struct {
		name      string
		cfg       gpusim.Config
		vector    int
		dim       int
		nodeBound int
		plan      *fault.Plan
		assign    uint64
		makespan  uint64
	}{
		{"512x8", gpusim.MI100Nodes(512, 8), 1024, 384, 16, nil, 0x93b6934d4ee7784b, 0x401f707307da2b8f},
		{"partial-last-node", nodes3, 96, 64, 2, nil, 0xc7c9557de6bfac68, 0x3f9333393f04e84c},
		{"node-loss", gpusim.MI100Nodes(4, 4), 64, 64, 2, lossOfNode1, 0xd132b0222b8e5301, 0x3f885a824da5ba25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workload.Generate(workload.Config{
				Seed: 2022, Stages: 3, VectorSize: tc.vector, TensorDim: tc.dim, Batch: 8,
				Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian, ChainRate: 0.3,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.Run(context.Background(), w, hier.New(tc.nodeBound, core.Bounds{0, 2, 0}),
				newCluster(t, tc.cfg), sched.Options{RecordAssignments: true, FaultPlan: tc.plan})
			if err != nil {
				t.Fatal(err)
			}
			if tc.plan != nil && res.Recovery.DevicesLost != len(tc.plan.Events) {
				t.Fatalf("plan lost %d devices, want %d", res.Recovery.DevicesLost, len(tc.plan.Events))
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, stage := range res.Assignments {
				for _, dev := range stage {
					binary.LittleEndian.PutUint64(buf[:], uint64(dev))
					h.Write(buf[:])
				}
			}
			if got := h.Sum64(); got != tc.assign {
				t.Errorf("assignments hash %#x, pinned %#x", got, tc.assign)
			}
			if got := math.Float64bits(res.Makespan); got != tc.makespan {
				t.Errorf("makespan bits %#x (%g s), pinned %#x", got, res.Makespan, tc.makespan)
			}
		})
	}
}
