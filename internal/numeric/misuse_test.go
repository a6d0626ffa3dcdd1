package numeric

import (
	"context"
	"errors"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestExecutorMisuse: each row misuses the executor and must get the
// sentinel it names (errors.Is), or succeed where it names none; no row
// may panic. A closed executor's buffers belong to other runs, so a row
// that calls it after Close also checks that it drew nothing from the
// process-wide tier and handed nothing to it.
func TestExecutorMisuse(t *testing.T) {
	w := levelStream(t, levelWidth, levelWidth)
	open := func(t *testing.T) *Executor {
		t.Helper()
		x, err := New(w, Config{Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	// closed runs the stream's first stage and closes the executor.
	closed := func(t *testing.T) *Executor {
		t.Helper()
		x := open(t)
		if err := x.RunStage(context.Background(), w.Stages[0].Pairs); err != nil {
			t.Fatal(err)
		}
		x.Close()
		return x
	}
	for _, row := range []struct {
		name string
		call func(t *testing.T) error
		want error
	}{
		{"New(struct-literal workload)", func(*testing.T) error {
			lit := &workload.Workload{Name: "literal", Inputs: w.Inputs, Outputs: w.Outputs, Stages: w.Stages}
			_, err := New(lit, Config{})
			return err
		}, workload.ErrUnnumbered},
		{"RunStage after Close", func(t *testing.T) error {
			x := closed(t)
			shared, misses := x.arena.shared, x.arena.misses
			err := x.RunStage(context.Background(), w.Stages[1].Pairs)
			if x.arena.shared != shared || x.arena.misses != misses {
				t.Errorf("drew %d buffers from the process-wide tier and missed %d after Close",
					x.arena.shared-shared, x.arena.misses-misses)
			}
			if !x.arena.released() {
				t.Error("a buffer went back to the closed run's free list")
			}
			return err
		}, tensor.ErrPipelineClosed},
		{"Close twice", func(t *testing.T) error {
			x := open(t)
			x.Close()
			x.Close()
			return nil
		}, nil},
		{"Fingerprint and Tensor after Close", func(t *testing.T) error {
			x := open(t)
			if err := x.RunStage(context.Background(), w.Stages[0].Pairs); err != nil {
				return err
			}
			live, _ := x.Tensor(5 + levelWidth - 1) // read by stage 1
			fp := x.Fingerprint()
			x.Close()
			if got, ok := x.Tensor(5 + levelWidth - 1); !ok || got != live {
				t.Error("a live tensor left the executor at Close")
			}
			if got := x.Fingerprint(); got != fp {
				t.Errorf("fingerprint %x after Close, %x before", got, fp)
			}
			return nil
		}, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			err := row.call(t)
			switch {
			case row.want == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case row.want != nil && !errors.Is(err, row.want):
				t.Fatalf("err = %v, want %v", err, row.want)
			}
		})
	}
}
