package sched_test

import (
	"context"
	"encoding/json"
	"testing"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// FuzzDecodeWorkload feeds workload files — seeded with what wgen writes —
// to the validated decode. Decoding must never panic, and every workload
// it accepts must complete a schedule-only Run whose cluster passes Audit:
// a file the decode lets through cannot fail, or corrupt the simulator,
// part-way through a run.
func FuzzDecodeWorkload(f *testing.F) {
	for _, cfg := range []workload.Config{
		{Seed: 1, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 2, Rank: tensor.RankMeson, RepeatRate: 0.5},
		{Seed: 7, Stages: 4, VectorSize: 3, TensorDim: 4, Batch: 1, Rank: tensor.RankMeson, RepeatRate: 0.8, Dist: workload.Gaussian, ChainRate: 0.5},
	} {
		w, err := workload.Generate(cfg)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.MarshalIndent(w, "", "  ") // wgen's encoding
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"Stages":[]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var w workload.Workload
		if err := json.Unmarshal(data, &w); err != nil {
			return
		}
		// Room for the largest pair: its operands and output at once.
		var largest int64
		for _, st := range w.Stages {
			for _, p := range st.Pairs {
				largest = max(largest, p.A.Bytes(), p.B.Bytes(), p.Out.Bytes())
			}
		}
		cfg := gpusim.MI100(2)
		cfg.MemoryBytes = max(cfg.MemoryBytes, 3*largest)
		c, err := gpusim.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Run(context.Background(), &w, core.NewFixed(core.Bounds{0, 2, 0}), c, sched.Options{}); err != nil {
			t.Fatalf("accepted workload failed its run: %v", err)
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("accepted workload left the cluster inconsistent: %v", err)
		}
	})
}
