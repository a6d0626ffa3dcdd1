package numeric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"micco/internal/tensor"
	"micco/internal/workload"
)

// Bounded-width level execution (levelWidth pairs per fused batch) must
// be invisible in the results: the tests below drive the executor over
// hand-built streams whose dependency levels sit on every side of the
// sub-batch seam and compare it against a pairwise oracle.

const levelDim = 16 // smallest dimension the AVX-512 block kernel takes

func levelDesc(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: levelDim, Batch: 1}
}

// levelStream builds a stream of one or two stages, each a single
// dependency level: stage 0 contracts pairs of the five inputs (IDs 1-5)
// into first intermediates, stage 1 — when second > 0 — contracts pairs of
// intermediates into second finals that nothing reads. IDs follow the
// slots, one past each: intermediate i is t(6+i), final j t(6+first+j).
func levelStream(t *testing.T, first, second int) *workload.Workload {
	t.Helper()
	var inputs []tensor.Desc
	for id := uint64(1); id <= 5; id++ {
		inputs = append(inputs, levelDesc(id))
	}
	stages := [][]workload.Pair{nil}
	for i := 0; i < first; i++ {
		stages[0] = append(stages[0], workload.Pair{
			A: levelDesc(uint64(1 + i%5)), B: levelDesc(uint64(1 + (3*i+1)%5)), Out: levelDesc(uint64(6 + i)),
		})
	}
	if second > 0 {
		var st []workload.Pair
		for j := 0; j < second; j++ {
			st = append(st, workload.Pair{
				A: levelDesc(uint64(6 + j%first)), B: levelDesc(uint64(6 + (7*j+3)%first)), Out: levelDesc(uint64(6 + first + j)),
			})
		}
		stages = append(stages, st)
	}
	return fromStages(t, fmt.Sprintf("levels-%d-%d", first, second), stages, inputs)
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

// levelRun is what one executor run over a stream leaves behind.
type levelRun struct {
	fp     float64
	norms  map[uint64]float64 // every tensor of the run, resident or reclaimed
	misses int                // arena draws served by a fresh allocation
	err    error              // first error, nil on a clean run
	// tensors is every tensor of the run; only the pairwise oracle, which
	// keeps them all, fills it.
	tensors map[uint64]*tensor.Tensor
}

// runLevels drives the executor the way its callers do: one RunStage per
// stage, in order.
func runLevels(t *testing.T, w *workload.Workload, pool int) levelRun {
	t.Helper()
	x, err := New(w, Config{Seed: 5, Workers: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	var r levelRun
	for _, st := range w.Stages {
		if r.err = x.RunStage(context.Background(), st.Pairs); r.err != nil {
			return r
		}
	}
	r.fp = x.Fingerprint()
	r.norms = make(map[uint64]float64)
	for s, t := range x.tensors {
		if t != nil {
			r.norms[x.ids[s]] = t.Norm()
		} else if x.dead[s] {
			r.norms[x.ids[s]] = x.norms[s]
		}
	}
	r.misses = x.arena.misses
	return r
}

// pairwiseOracle evaluates the stream one contraction at a time, in
// stream order, with no store, levels, batches or arena.
func pairwiseOracle(t *testing.T, w *workload.Workload) levelRun {
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
	r := levelRun{norms: make(map[uint64]float64), tensors: ts}
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

var levelPools = []int{1, 2, 8}

// TestLevelWidthInvisible: with both levels of the stream 1, W-1, W, W+1
// and 10*W pairs wide, the fingerprint and every tensor's norm equal the
// pairwise oracle's bit for bit at pool 1, 2 and 8.
func TestLevelWidthInvisible(t *testing.T) {
	for _, width := range []int{1, levelWidth - 1, levelWidth, levelWidth + 1, 10 * levelWidth} {
		w := levelStream(t, width, width)
		want := pairwiseOracle(t, w)
		for _, pool := range levelPools {
			label := fmt.Sprintf("width=%d pool=%d", width, pool)
			got := runLevels(t, w, pool)
			if got.err != nil {
				t.Fatalf("%s: %v", label, got.err)
			}
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
		}
	}
}

// TestLevelFirstError: a level's operands are resolved before any of its
// sub-batches runs, so a missing operand late in a wide level is reported
// ahead of a shape mismatch early in it, and of two mismatches the one
// earlier in the stream wins — the same error at every pool size. Inputs
// t6 and t7 are drawn at half the dimension their readers name, so only
// the executor objects to them; the missing operand is stage 0's output,
// read by a stage 1 run first.
func TestLevelFirstError(t *testing.T) {
	odd := func(id uint64) tensor.Desc {
		return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: levelDim / 2, Batch: 1}
	}
	inputs := []tensor.Desc{levelDesc(1), levelDesc(2), levelDesc(3), levelDesc(4), levelDesc(5), odd(6), odd(7)}
	wide := func(plant func(pairs []workload.Pair)) []workload.Pair {
		pairs := make([]workload.Pair, 10*levelWidth)
		for i := range pairs {
			pairs[i] = workload.Pair{
				A: levelDesc(uint64(1 + i%5)), B: levelDesc(uint64(1 + (3*i+1)%5)), Out: levelDesc(uint64(100 + i)),
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
		{"missing-beats-earlier-mismatch", [][]workload.Pair{
			{{A: levelDesc(1), B: levelDesc(2), Out: levelDesc(99)}},
			wide(func(pairs []workload.Pair) {
				pairs[5].B = levelDesc(6)
				pairs[levelWidth+3].A = levelDesc(99)
			}),
		}, "numeric: operand t99 missing"},
		{"first-mismatch-in-stream-order", [][]workload.Pair{
			wide(func(pairs []workload.Pair) {
				pairs[levelWidth+1].B = levelDesc(6)
				pairs[2*levelWidth+5].A = levelDesc(7)
			}),
		}, fmt.Sprintf("shape mismatch %v vs %v", levelDesc(uint64(1+(levelWidth+1)%5)), odd(6))},
	} {
		w := fromStages(t, c.name, c.stages, inputs)
		last := w.Stages[len(w.Stages)-1].Pairs
		for _, pool := range levelPools {
			x, err := New(w, Config{Seed: 5, Workers: pool})
			if err != nil {
				t.Fatal(err)
			}
			err = x.RunStage(context.Background(), last)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s pool=%d: error %v, want one containing %q", c.name, pool, err, c.want)
			}
			x.Close()
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on, which places a cancel between two chosen sub-batches.
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

// TestLevelCancelBetweenBatches: a cancel that lands while a wide level
// runs is seen before the next sub-batch starts, at every pool width — the
// level's remaining pairs never run.
func TestLevelCancelBetweenBatches(t *testing.T) {
	w := levelStream(t, 10*levelWidth, 0)
	for _, pool := range levelPools {
		for _, done := range []int{0, 3, 9} {
			x, err := New(w, Config{Seed: 5, Workers: pool})
			if err != nil {
				t.Fatal(err)
			}
			err = x.RunStage(&cancelAfter{context.Background(), done}, w.Stages[0].Pairs)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("pool=%d: err = %v after %d sub-batches, want context.Canceled", pool, err, done)
			}
			produced := held(x) - len(w.Inputs)
			if produced != done*levelWidth {
				t.Errorf("pool=%d: %d outputs produced, want %d (%d sub-batches)", pool, produced, done*levelWidth, done)
			}
			x.Close()
		}
	}
}

// TestLevelRecyclesOwnBuffers: outputs that are dead on production cycle
// through the sub-batch's buffers, so a wide final level costs at most
// levelWidth fresh allocations on top of the intermediates still live
// when it starts — not one per pair.
func TestLevelRecyclesOwnBuffers(t *testing.T) {
	for _, c := range []struct{ live, finals int }{
		{0, 10 * levelWidth},              // finals straight from the inputs
		{3 * levelWidth, 10 * levelWidth}, // a live level feeding a wide final one
	} {
		w := levelStream(t, c.finals, 0)
		if c.live > 0 {
			w = levelStream(t, c.live, c.finals)
		}
		for _, pool := range []int{1, 8} {
			got := runLevels(t, w, pool)
			if got.err != nil {
				t.Fatal(got.err)
			}
			if bound := c.live + levelWidth; got.misses > bound {
				t.Errorf("live=%d finals=%d pool=%d: %d arena misses, want <= %d", c.live, c.finals, pool, got.misses, bound)
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

// TestLevelPartition pins the level partitioner on the edge shapes it
// guards: an independent stage fuses whole, and read-after-write chains
// split into one level per link, each level internally independent and in
// stream order. The write-after-write and write-after-read stages an
// earlier partitioner also split are refused by FromStages.
func TestLevelPartition(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1} }
	inputs := []tensor.Desc{d(1), d(2), d(3), d(4)}
	lv := levelizer{prod: make([]int32, 16)}
	shared := fromStages(t, "shared", [][]workload.Pair{{
		{A: d(1), B: d(2), Out: d(10)},
		{A: d(1), B: d(3), Out: d(11)}, // shared input is fine
	}}, inputs).Stages[0].Pairs
	if levels := lv.partition(shared); len(levels) != 1 || len(levels[0]) != 2 {
		t.Errorf("shared-input stage split into %d levels, want one level of 2", len(levels))
	}
	chained := fromStages(t, "raw", [][]workload.Pair{{
		{A: d(1), B: d(2), Out: d(10)},
		{A: d(3), B: d(4), Out: d(13)},  // independent of the chain
		{A: d(10), B: d(2), Out: d(11)}, // reads same-stage output 10
		{A: d(1), B: d(11), Out: d(12)}, // chains further
	}, {
		{A: d(10), B: d(11), Out: d(20)}, // earlier stages' outputs are no floor
		{A: d(12), B: d(13), Out: d(21)},
	}}, inputs)
	levels := lv.partition(chained.Stages[0].Pairs)
	var got [][]uint64
	for _, l := range levels {
		var outs []uint64
		for _, p := range l {
			outs = append(outs, p.Out.ID)
		}
		got = append(got, outs)
	}
	if want := [][]uint64{{10, 13}, {11}, {12}}; !reflect.DeepEqual(got, want) {
		t.Errorf("chained stage levels %v, want %v", got, want)
	}
	for _, c := range []struct {
		name  string
		pairs []workload.Pair
	}{
		{"write-after-write", []workload.Pair{
			{A: d(1), B: d(2), Out: d(10)},
			{A: d(3), B: d(4), Out: d(10)}, // duplicate output
		}},
		{"write-after-read", []workload.Pair{
			{A: d(10), B: d(2), Out: d(11)}, // reads an ID a later pair writes
			{A: d(1), B: d(2), Out: d(10)},
		}},
	} {
		if _, err := workload.FromStages(c.name, [][]workload.Pair{c.pairs}, inputs); !errors.Is(err, workload.ErrInvalidStages) {
			t.Errorf("%s stage: FromStages error %v, want ErrInvalidStages", c.name, err)
		}
	}
	// Reuse across calls must not leak floors between stages.
	if next := lv.partition(chained.Stages[1].Pairs); len(next) != 1 {
		t.Errorf("a stage reading the previous stage's chain split into %d levels, want 1", len(next))
	}
}
