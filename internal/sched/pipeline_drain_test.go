// Robustness-layer guards for numeric runs: cancellation at randomized
// points stops every pool goroutine and surfaces a clean context.Canceled, and the checkpoint-off, supervisor-off hot path
// allocates exactly what it did before the durability layer existed.
package sched_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"micco/internal/baseline"
	"micco/internal/sched"
	"micco/internal/workload"
)

// cancelScheduler cancels the run context at its trip Assign call.
type cancelScheduler struct {
	sched.Scheduler
	at     int
	calls  int
	cancel context.CancelFunc
}

func (c *cancelScheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	c.calls++
	if c.calls == c.at {
		c.cancel()
	}
	return c.Scheduler.Assign(p, ctx)
}

// TestPipelineCancelDrainsCleanly cancels numeric runs at randomized pair
// positions at every pool width — Parallelism 1 included: every width
// owns parked workers that Run must stop on every exit path. Each width
// also gets one trial whose cancel lands on the last placement of the last
// stage, whose boundary runs the numerics, so the numeric executor, not
// the pair loop, is what notices it — which is also why no trial can
// outrun its cancel. Every run must return
// context.Canceled with its checkpoint, and after all trials the process
// must settle back to its starting goroutine count — no parked worker or
// watchdog goroutine may leak.
func TestPipelineCancelDrainsCleanly(t *testing.T) {
	w := numericWorkload(t, 31)
	rng := rand.New(rand.NewSource(31))
	before := runtime.NumGoroutine()
	last := len(w.Stages) - 1

	for _, width := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 8; trial++ {
			at := 1 + rng.Intn(w.NumPairs())
			if trial == 0 {
				at = w.NumPairs()
			}
			ctx, cancel := context.WithCancel(context.Background())
			s := &cancelScheduler{Scheduler: baseline.NewRoundRobin(), at: at, cancel: cancel}
			res, err := sched.Run(ctx, w, s, newClusterT(t, 4),
				sched.Options{Numeric: true, NumericSeed: 31, Parallelism: width, Checkpoint: true})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("width %d trial %d (cancel at %d): err = %v, want context.Canceled", width, trial, at, err)
			}
			if res == nil || res.Checkpoint == nil {
				t.Fatalf("width %d trial %d: cancelled run carried no checkpoint", width, trial)
			}
			if at == w.NumPairs() && res.Checkpoint.NextStage() != last {
				t.Errorf("width %d: cancel on the last placement left a checkpoint at stage %d, want %d: the numerics must not have run",
					width, res.Checkpoint.NextStage(), last)
			}
		}
	}

	// Settle loop: pool workers exit asynchronously after Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after cancelled runs\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRobustnessHotPathAllocsUnchanged proves the durability layer is free
// when off: a run with a Progress counter attached (checkpointing off,
// supervisor off) allocates no more than the plain run — the per-pair cost
// of the layer is one nil check and one atomic add.
func TestRobustnessHotPathAllocsUnchanged(t *testing.T) {
	w := f0d4Workload(t)
	c := newClusterT(t, 8)
	s := baseline.NewRoundRobin()
	plain := testing.AllocsPerRun(3, func() {
		if _, err := sched.Run(context.Background(), w, s, c, sched.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	prog := &sched.Progress{}
	withProg := testing.AllocsPerRun(3, func() {
		if _, err := sched.Run(context.Background(), w, s, c, sched.Options{Progress: prog}); err != nil {
			t.Fatal(err)
		}
	})
	if prog.Pairs() == 0 {
		t.Fatal("Progress never advanced; the guard measured the wrong path")
	}
	if withProg > plain {
		t.Errorf("Progress-on run allocates %.0f vs %.0f plain; the robustness layer must be free when off",
			withProg, plain)
	}
}
