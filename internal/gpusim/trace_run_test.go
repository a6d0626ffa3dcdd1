package gpusim_test

import (
	"bytes"
	"context"
	"testing"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// observedRun records the ladder's observed_run job at the given size:
// eight devices holding a sixteenth of the unique bytes, fixed-bounds MICCO,
// registry and simulator trace on.
func observedRun(tb testing.TB, stages, vector int) ([]obs.Event, []obs.DecisionRecord) {
	tb.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: stages, VectorSize: vector, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := gpusim.MI100(8)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 16
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.StartTrace()
	reg := obs.New()
	if _, err := sched.Run(context.Background(), w, core.NewFixed(core.Bounds{0, 2, 0}), c, sched.Options{Obs: reg}); err != nil {
		tb.Fatal(err)
	}
	return c.StopTrace(), reg.Decisions()
}

// TestChromeTraceMatchesFmtWriterOnRun holds the trace writer to the fmt
// writer it replaced, byte for byte, on what a watched run under memory
// pressure records — the ladder's observed_run job: every transfer and
// eviction kind, and one decision per pair.
func TestChromeTraceMatchesFmtWriterOnRun(t *testing.T) {
	events, decisions := observedRun(t, 10, 1024)
	kinds := map[obs.EventKind]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	if len(kinds) < 4 || len(decisions) == 0 {
		t.Fatalf("the run recorded %d events of %d kinds and %d decisions", len(events), len(kinds), len(decisions))
	}
	var got, want bytes.Buffer
	if err := gpusim.WriteChromeTraceMerged(&got, events, decisions); err != nil {
		t.Fatal(err)
	}
	if err := gpusim.RefWriteChromeTrace(&want, events, decisions); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%d events, %d decisions: %d bytes written, the fmt writer writes %d, or bytes differ",
			len(events), len(decisions), got.Len(), want.Len())
	}
}
