package experiment

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"micco/internal/autotune"
)

// TestTablesByteIdenticalAcrossParallelism is the determinism contract of
// the parallel harness: the rendered table of every sweep-style experiment
// must be byte-identical between serial (Parallelism 1) and a wide pool.
// Both harnesses share a seed and quick mode but nothing else.
func TestTablesByteIdenticalAcrossParallelism(t *testing.T) {
	render := func(parallelism int, id string) []byte {
		t.Helper()
		h := New(Options{Quick: true, Seed: 7, Parallelism: parallelism})
		tab, err := h.RunExperiment(context.Background(), id)
		if err != nil {
			t.Fatalf("%s at parallelism %d: %v", id, parallelism, err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// fig9 exercises the per-point predictor rescale, fig11 the per-dist
	// geomean collection, tab6 the correlator front end; fig5 rides on the
	// parallel corpus build.
	for _, id := range []string{"fig5", "fig9", "fig11", "tab6"} {
		serial := render(1, id)
		wide := render(8, id)
		if !bytes.Equal(serial, wide) {
			t.Errorf("%s: rendered table differs between parallelism 1 and 8:\n-- serial --\n%s\n-- parallel --\n%s",
				id, serial, wide)
		}
	}
}

func TestRunExperimentCancelled(t *testing.T) {
	for _, par := range []int{1, 4} {
		h := New(Options{Quick: true, Seed: 7, Parallelism: par})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := h.RunExperiment(ctx, "fig9"); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
}

// TestForEachPointFirstErrorWins pins the error rule of the pool the
// harness measures on (autotune.ForEachPoint, shared with the corpus
// builder).
func TestForEachPointFirstErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := autotune.ForEachPoint(context.Background(), 4, 8, func(_ context.Context, i int) error {
		switch i {
		case 2:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("err = %v, want the lowest-index error %v", err, errA)
	}

	// A point that stops because the pool cancelled it must not outrank
	// the error that caused the cancellation: point 0 honours its context
	// (as every sched.Run does, per pair) while point 3 fails for real.
	root := errors.New("root cause")
	started := make(chan struct{})
	err = autotune.ForEachPoint(context.Background(), 4, 4, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			close(started)
			<-ctx.Done()
			return ctx.Err()
		case 3:
			<-started
			return root
		}
		return nil
	})
	if !errors.Is(err, root) {
		t.Errorf("err = %v, want the error that stopped the pool (%v)", err, root)
	}

	// Cancellation of the caller's context still surfaces as such.
	ctx, cancel := context.WithCancel(context.Background())
	err = autotune.ForEachPoint(ctx, 2, 4, func(ctx context.Context, i int) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled from the parent", err)
	}
}
