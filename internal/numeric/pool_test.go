package numeric_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"micco/internal/numeric"
	"micco/internal/redstar"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// Storage outlives the run: a closed executor hands its dead buffers to a
// process-wide tier that later runs draw from. The tests below hold that
// tier to the rules it must keep — no number moves, whatever the recycled
// storage held; a tensor the caller still holds never crosses; executors
// running at once share it safely — and to what it is for: a warm run of
// a deck_numeric job allocates almost nothing.

// deck is the numeric stream of a bundled correlator at the given number
// of sink times, tensor size 128 and batch 2 (the deck_numeric job's
// shape), with the slots of its finals.
func deck(t *testing.T, c *redstar.Correlator, times int) (*workload.Workload, []int) {
	t.Helper()
	c.TimeSlices, c.TensorDim, c.Batch = times, 128, 2
	b, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	slot := make(map[uint64]int)
	for s, id := range b.Workload.TensorIDs() {
		slot[id] = s
	}
	var finals []int
	for _, fds := range b.FinalsByTime {
		for _, fd := range fds {
			finals = append(finals, slot[fd.ID])
		}
	}
	return b.Workload, finals
}

// run executes w on a new executor and returns it open: the caller closes
// it.
func run(t *testing.T, w *workload.Workload, cfg numeric.Config) *numeric.Executor {
	t.Helper()
	x, err := numeric.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Run(context.Background()); err != nil {
		x.Close()
		t.Fatal(err)
	}
	return x
}

// fingerprint is one closed run's fingerprint.
func fingerprint(t *testing.T, w *workload.Workload, cfg numeric.Config) float64 {
	t.Helper()
	x := run(t, w, cfg)
	defer x.Close()
	return x.Fingerprint()
}

// pauseGC turns the collector off for the rest of the test, so that the
// process-wide tier (a sync.Pool per size) keeps what runs hand it.
func pauseGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestWarmRunAllocatesAlmostNothing: a second numeric run of the
// deck_numeric job (al_rhopi, four sink times, batch 2) draws its whole
// working set — inputs and outputs — from the storage the first one
// handed back: no draw misses both tiers, and the run allocates under
// 2 MB where a cold one allocates about 72 MB.
func TestWarmRunAllocatesAlmostNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race a sync.Pool drops a random quarter of what it is handed")
	}
	pauseGC(t)
	w, _ := deck(t, redstar.A1RhoPi(), 4)
	cfg := numeric.Config{Seed: 2022}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cold := fingerprint(t, w, cfg)
	runtime.ReadMemStats(&after)
	t.Logf("first run: %.2f MB", float64(after.TotalAlloc-before.TotalAlloc)/1e6)

	runtime.ReadMemStats(&before)
	x := run(t, w, cfg)
	shared, misses := numeric.ArenaDraws(x)
	fp := x.Fingerprint()
	x.Close()
	runtime.ReadMemStats(&after)
	warm := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm run: %.3f MB, %d draws from the process-wide tier", float64(warm)/1e6, shared)
	if misses != 0 {
		t.Errorf("warm run: %d draws neither tier served, want 0", misses)
	}
	if shared == 0 {
		t.Error("warm run drew nothing from the process-wide tier")
	}
	if warm >= 2e6 {
		t.Errorf("warm run allocated %d bytes, want < 2 MB", warm)
	}
	if fp != cold {
		t.Errorf("warm fingerprint %x, cold %x", fp, cold)
	}
}

// finals copies the data of the tensors in the given slots.
func finals(x *numeric.Executor, slots []int) [][]float64 {
	out := make([][]float64, len(slots))
	for i, s := range slots {
		if ft, ok := x.Tensor(s); ok {
			out[i] = append([]float64(nil), ft.Data...)
		}
	}
	return out
}

// sameBits is bitwise equality of two value slices.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPinnedFinalsStayWithTheCaller: the finals EvaluateNumeric pins keep
// their bits after the executor is closed and after later runs — of the
// same deck and of another whose tensors have the same size — have drawn
// from the storage it handed back.
func TestPinnedFinalsStayWithTheCaller(t *testing.T) {
	pauseGC(t)
	w, pin := deck(t, redstar.A1RhoPi(), 2)
	other, _ := deck(t, redstar.F0D2(), 1)
	x := run(t, w, numeric.Config{Seed: 3, Pin: pin})
	held := make([]*tensor.Tensor, len(pin))
	for i, s := range pin {
		ft, ok := x.Tensor(s)
		if !ok {
			t.Fatalf("pinned final in slot %d missing", s)
		}
		held[i] = ft
	}
	keep := finals(x, pin)
	x.Close()
	for _, later := range []*workload.Workload{w, other} {
		x := run(t, later, numeric.Config{Seed: 4})
		if shared, _ := numeric.ArenaDraws(x); shared == 0 {
			t.Errorf("%s: drew no recycled buffer", later.Name)
		}
		x.Close()
		for i, ft := range held {
			if !sameBits(ft.Data, keep[i]) {
				t.Fatalf("after a run of %s: the final in slot %d changed", later.Name, pin[i])
			}
		}
	}
}

// TestConcurrentRunsSharePools: executors running at once on separate
// goroutines, on streams whose tensors have one size, draw from and hand
// back to the same process-wide tier (run under -race in make check), and
// each run gets the fingerprint of a run on its own.
func TestConcurrentRunsSharePools(t *testing.T) {
	var ws [2]*workload.Workload
	var want [2]float64
	for i := range ws {
		w, err := workload.Generate(workload.Config{
			Seed: int64(20 + i), Stages: 3, VectorSize: 16, TensorDim: 16, Batch: 2,
			Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
		want[i] = fingerprint(t, w, numeric.Config{Seed: 7, Workers: 2})
	}
	const rounds = 4
	var drawn atomic.Int64 // draws the process-wide tier served, both goroutines
	errs := make(chan error, len(ws)*rounds)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				fp, shared, err := runOnce(w, numeric.Config{Seed: 7, Workers: 2})
				drawn.Add(int64(shared))
				if err == nil && fp != want[i] {
					err = fmt.Errorf("%s round %d: fingerprint %x, %x on its own", w.Name, round, fp, want[i])
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if drawn.Load() == 0 {
		t.Error("no concurrent run drew from the process-wide tier")
	}
}

// runOnce is run and fingerprint for a goroutine that may not call
// t.Fatal: one closed run's fingerprint and its draws from the
// process-wide tier.
func runOnce(w *workload.Workload, cfg numeric.Config) (fp float64, shared int, err error) {
	x, err := numeric.New(w, cfg)
	if err != nil {
		return 0, 0, err
	}
	defer x.Close()
	if err := x.Run(context.Background()); err != nil {
		return 0, 0, err
	}
	shared, _ = numeric.ArenaDraws(x)
	return x.Fingerprint(), shared, nil
}

// TestReadyFootprint: the deck_numeric job (al_rhopi, four sink times,
// batch 2, 512 KiB tensors) holds at most 40 MB of storage at once, inputs
// included. Stage by stage in stream order it holds 71.8 MB: every output
// of the first stage waits at the stage barrier for the last of them.
// The demand order produces each intermediate next to its readers and
// holds 37.2 MB; the bound fails if the stream order comes back.
func TestReadyFootprint(t *testing.T) {
	w, _ := deck(t, redstar.A1RhoPi(), 4)
	for _, pool := range []int{1, 8} {
		x := run(t, w, numeric.Config{Seed: 2022, Workers: pool})
		peak := numeric.PeakHeldBytes(x)
		x.Close()
		t.Logf("pool %d: %d inputs, %d pairs, peak %.1f MB", pool, len(w.Inputs), w.NumPairs(), float64(peak)/1e6)
		if peak > 40e6 {
			t.Errorf("pool %d: peak live storage %.1f MB, want <= 40 MB", pool, float64(peak)/1e6)
		}
	}
}
