package numeric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// Running the stream as batches of ready pairs (levelWidth a batch, demand
// order across stage boundaries) must be invisible in the results: the
// tests below drive the executor over hand-built streams whose batches
// sit on every side of the seams and compare it against a pairwise
// oracle.

const testDim = 16 // smallest dimension the AVX-512 block kernel takes

func testDesc(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: testDim, Batch: 1}
}

// wideStream builds a stream of one or two stages: stage 0 contracts
// pairs of the five inputs (IDs 1-5) into first intermediates, stage 1 —
// when second > 0 — contracts pairs of intermediates into second finals
// that nothing reads. IDs follow the slots, one past each: intermediate i
// is t(6+i), final j t(6+first+j).
func wideStream(t *testing.T, first, second int) *workload.Workload {
	t.Helper()
	var inputs []tensor.Desc
	for id := uint64(1); id <= 5; id++ {
		inputs = append(inputs, testDesc(id))
	}
	stages := [][]workload.Pair{nil}
	for i := 0; i < first; i++ {
		stages[0] = append(stages[0], workload.Pair{
			A: testDesc(uint64(1 + i%5)), B: testDesc(uint64(1 + (3*i+1)%5)), Out: testDesc(uint64(6 + i)),
		})
	}
	if second > 0 {
		var st []workload.Pair
		for j := 0; j < second; j++ {
			st = append(st, workload.Pair{
				A: testDesc(uint64(6 + j%first)), B: testDesc(uint64(6 + (7*j+3)%first)), Out: testDesc(uint64(6 + first + j)),
			})
		}
		stages = append(stages, st)
	}
	return fromStages(t, fmt.Sprintf("wide-%d-%d", first, second), stages, inputs)
}

// fromStages is workload.FromStages for a stream the test means to be
// valid.
func fromStages(t *testing.T, name string, stages [][]workload.Pair, inputs []tensor.Desc) *workload.Workload {
	t.Helper()
	w, err := workload.FromStages(name, stages, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// streamRun is what one executor run over a stream leaves behind.
type streamRun struct {
	fp     float64
	norms  map[uint64]float64 // every tensor of the run, resident or reclaimed
	misses int                // arena draws the run's own free list could not serve
	// tensors is every tensor the run still holds: the pairwise oracle
	// keeps them all, the executor its pinned ones.
	tensors map[uint64]*tensor.Tensor
}

// runStream drives the executor the way its callers do: one Run.
func runStream(t *testing.T, w *workload.Workload, pool int, pin ...int) streamRun {
	t.Helper()
	x, err := New(w, Config{Seed: 5, Workers: pool, Pin: pin})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := streamRun{fp: x.Fingerprint(), norms: make(map[uint64]float64), tensors: make(map[uint64]*tensor.Tensor)}
	for s, t := range x.tensors {
		if t != nil {
			r.norms[x.ids[s]], r.tensors[x.ids[s]] = t.Norm(), t
		} else if x.dead[s] {
			r.norms[x.ids[s]] = x.norms[s]
		}
	}
	r.misses = x.arena.misses + x.arena.shared
	return r
}

// pairwiseOracle evaluates the stream one contraction at a time, in
// stream order, with no store, ready list, batches or arena.
func pairwiseOracle(t *testing.T, w *workload.Workload) streamRun {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ts := make(map[uint64]*tensor.Tensor)
	for _, d := range w.Inputs {
		x, err := tensor.NewRandom(d, rng)
		if err != nil {
			t.Fatal(err)
		}
		ts[d.ID] = x
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			out, err := tensor.Contract(ts[p.A.ID], ts[p.B.ID], p.Out.ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			ts[p.Out.ID] = out
		}
	}
	r := streamRun{norms: make(map[uint64]float64), tensors: ts}
	ids := make([]uint64, 0, len(ts))
	for id, x := range ts {
		ids = append(ids, id)
		r.norms[id] = x.Norm()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r.fp += r.norms[id]
	}
	return r
}

// sameAsOracle reports every way got differs from the oracle's run: the
// fingerprint, the set of tensors and each one's norm, bit for bit, and
// the norm of every tensor got still holds.
func sameAsOracle(t *testing.T, label string, got, want streamRun) {
	t.Helper()
	if math.Float64bits(got.fp) != math.Float64bits(want.fp) {
		t.Errorf("%s: fingerprint %x, want %x", label, got.fp, want.fp)
	}
	if len(got.norms) != len(want.norms) {
		t.Errorf("%s: %d tensors, want %d", label, len(got.norms), len(want.norms))
	}
	for id, n := range want.norms {
		if g, ok := got.norms[id]; !ok || math.Float64bits(g) != math.Float64bits(n) {
			t.Errorf("%s: norm of t%d = %x (present %v), want %x", label, id, g, ok, n)
		}
	}
	for id, x := range got.tensors {
		if g, n := x.Norm(), want.norms[id]; math.Float64bits(g) != math.Float64bits(n) {
			t.Errorf("%s: held t%d has norm %x, want %x", label, id, g, n)
		}
	}
}

var testPools = []int{1, 2, 8}

// TestReadyWidthInvisible: with both stages of the stream 1, W-1, W, W+1
// and 10*W pairs wide, the fingerprint and every tensor's norm equal the
// pairwise oracle's bit for bit at pool 1, 2 and 8.
func TestReadyWidthInvisible(t *testing.T) {
	for _, width := range []int{1, levelWidth - 1, levelWidth, levelWidth + 1, 10 * levelWidth} {
		w := wideStream(t, width, width)
		want := pairwiseOracle(t, w)
		for _, pool := range testPools {
			sameAsOracle(t, fmt.Sprintf("width=%d pool=%d", width, pool), runStream(t, w, pool), want)
		}
	}
}

// TestReadyMatchesPairwise: a four-stage stream whose stages chain within
// themselves and read the outputs of the stage before and of the one two
// back — so ready pairs of several stages share a batch and a stage's
// pairs wait on each other — gives the pairwise oracle's fingerprint and
// every tensor's norm, pinned ones included, at pool 1, 2 and 8.
func TestReadyMatchesPairwise(t *testing.T) {
	inputs := []tensor.Desc{testDesc(1), testDesc(2), testDesc(3), testDesc(4), testDesc(5)}
	rng := rand.New(rand.NewSource(11))
	var stages [][]workload.Pair
	outs := [][]uint64{{1, 2, 3, 4, 5}} // what each stage made, the inputs first
	next := uint64(6)
	for si := 0; si < 4; si++ {
		var pairs []workload.Pair
		var made []uint64
		for k := 0; k < 2*levelWidth+5; k++ {
			// An operand from the stage before, one from two stages back
			// (the inputs before stage 1), and every third pair chained on
			// its own stage's last output.
			prev := outs[len(outs)-1]
			back := outs[max(len(outs)-2, 0)]
			a, b := prev[rng.Intn(len(prev))], back[rng.Intn(len(back))]
			if k%3 == 2 {
				a = made[len(made)-1]
			}
			pairs = append(pairs, workload.Pair{A: testDesc(a), B: testDesc(b), Out: testDesc(next)})
			made = append(made, next)
			next++
		}
		stages = append(stages, pairs)
		outs = append(outs, made)
	}
	w := fromStages(t, "chains", stages, inputs)
	// An input, a stage-1 output and two of the last stage's.
	pin := []int{2, 5 + len(stages[0]) + 3, w.NumPairs() + 4, w.NumPairs() + 1}
	want := pairwiseOracle(t, w)
	for _, pool := range testPools {
		got := runStream(t, w, pool, pin...)
		if len(got.tensors) != len(pin) {
			t.Errorf("pool=%d: the run holds %d tensors, want the %d pinned", pool, len(got.tensors), len(pin))
		}
		sameAsOracle(t, fmt.Sprintf("pool=%d", pool), got, want)
	}
}

// TestReadyFirstError: batches are static — the demand order fixes which
// pairs go together and in what order — so the error a run reports is the
// first of its first failing batch, the same at every pool size. Inputs t6
// and t7 are drawn at half the dimension their readers name, so only the
// executor objects to them. In a single stage the demand order is the
// stream order; with a second stage, the producers its first pair reads
// run first, ahead of stream order.
func TestReadyFirstError(t *testing.T) {
	odd := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: testDim / 2, Batch: 1}
	}
	inputs := []tensor.Desc{testDesc(1), testDesc(2), testDesc(3), testDesc(4), testDesc(5), odd(6), odd(7)}
	wide := func(plant func(pairs []workload.Pair)) []workload.Pair {
		pairs := make([]workload.Pair, 10*levelWidth)
		for i := range pairs {
			pairs[i] = workload.Pair{
				A: testDesc(uint64(1 + i%5)), B: testDesc(uint64(1 + (3*i+1)%5)), Out: testDesc(uint64(100 + i)),
			}
		}
		plant(pairs)
		return pairs
	}
	for _, c := range []struct {
		name   string
		stages [][]workload.Pair
		want   string
	}{
		{"first-mismatch-in-stream-order", [][]workload.Pair{
			wide(func(pairs []workload.Pair) {
				pairs[levelWidth+1].B = testDesc(6)
				pairs[2*levelWidth+5].A = testDesc(7)
			}),
		}, fmt.Sprintf("shape mismatch %v vs %v", testDesc(uint64(1+(levelWidth+1)%5)), odd(6))},
		{"demand-beats-stream-order", [][]workload.Pair{
			wide(func(pairs []workload.Pair) {
				pairs[levelWidth+2].B = testDesc(6)
				pairs[9*levelWidth].A = testDesc(7)
			}),
			{{A: testDesc(100 + 9*levelWidth), B: testDesc(103), Out: testDesc(99)}},
		}, fmt.Sprintf("shape mismatch %v vs %v", odd(7), testDesc(uint64(1+(27*levelWidth+1)%5)))},
	} {
		w := fromStages(t, c.name, c.stages, inputs)
		for _, pool := range testPools {
			x, err := New(w, Config{Seed: 5, Workers: pool})
			if err != nil {
				t.Fatal(err)
			}
			err = x.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s pool=%d: error %v, want one containing %q", c.name, pool, err, c.want)
			}
			x.Close()
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on, which places a cancel between two chosen batches.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestReadyCancelBetweenBatches: a cancel that lands while a wide stream
// runs is seen before the next batch starts, at every pool width — the
// stream's remaining pairs never run.
func TestReadyCancelBetweenBatches(t *testing.T) {
	w := wideStream(t, 10*levelWidth, 0)
	for _, pool := range testPools {
		for _, done := range []int{0, 3, 9} {
			x, err := New(w, Config{Seed: 5, Workers: pool})
			if err != nil {
				t.Fatal(err)
			}
			err = x.Run(&cancelAfter{context.Background(), done})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("pool=%d: err = %v after %d batches, want context.Canceled", pool, err, done)
			}
			produced := held(x) - len(w.Inputs)
			if produced != done*levelWidth {
				t.Errorf("pool=%d: %d outputs produced, want %d (%d batches)", pool, produced, done*levelWidth, done)
			}
			x.Close()
		}
	}
}

// TestReadyRecyclesOwnBuffers: outputs that are dead on production cycle
// through the batch's buffers, so a wide final stage draws at most
// levelWidth buffers its own free list cannot serve on top of the inputs
// and the intermediates it reads — not one per pair. The count is the
// run's own: draws the process-wide tier served, which depend on what
// earlier runs left there, count as much as fresh ones.
func TestReadyRecyclesOwnBuffers(t *testing.T) {
	for _, c := range []struct{ live, finals int }{
		{0, 10 * levelWidth},              // finals straight from the inputs
		{3 * levelWidth, 10 * levelWidth}, // intermediates feeding a wide final stage
	} {
		w := wideStream(t, c.finals, 0)
		if c.live > 0 {
			w = wideStream(t, c.live, c.finals)
		}
		for _, pool := range []int{1, 8} {
			got := runStream(t, w, pool)
			if bound := len(w.Inputs) + c.live + levelWidth; got.misses > bound {
				t.Errorf("live=%d finals=%d pool=%d: %d draws past the run's free list, want <= %d", c.live, c.finals, pool, got.misses, bound)
			}
		}
	}
}

// held counts the tensors x has produced or drawn: resident or reclaimed.
func held(x *Executor) int {
	n := 0
	for s, t := range x.tensors {
		if t != nil || x.dead[s] {
			n++
		}
	}
	return n
}
