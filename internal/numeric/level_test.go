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

// Bounded-width level execution (levelWidth pairs per fused batch) must
// be invisible in the results: the tests below drive the executor over
// hand-built streams whose dependency levels sit on every side of the
// sub-batch seam and compare it against a pairwise oracle.

const levelDim = 16 // smallest dimension the AVX-512 block kernel takes

func levelDesc(id uint64) tensor.Desc {
	return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: levelDim, Batch: 1}
}

// levelStream builds a stream of one or two stages, each a single
// dependency level: stage 0 contracts pairs of the five inputs into first
// intermediates (IDs 100+i), stage 1 — when second > 0 — contracts pairs
// of intermediates into second finals (IDs 10000+j) that nothing reads.
// Assembled by hand, like TestBuildLivenessExclusions' stream, so the
// error cases can plant pairs FromStages would reject.
func levelStream(first, second int) *workload.Workload {
	w := &workload.Workload{Name: fmt.Sprintf("levels-%d-%d", first, second)}
	for id := uint64(1); id <= 5; id++ {
		w.Inputs = append(w.Inputs, levelDesc(id))
	}
	st := workload.Stage{Index: 0}
	for i := 0; i < first; i++ {
		st.Pairs = append(st.Pairs, workload.Pair{
			A: levelDesc(uint64(1 + i%5)), B: levelDesc(uint64(1 + (3*i+1)%5)), Out: levelDesc(uint64(100 + i)),
		})
	}
	w.Stages = append(w.Stages, st)
	if second > 0 {
		st = workload.Stage{Index: 1}
		for j := 0; j < second; j++ {
			st.Pairs = append(st.Pairs, workload.Pair{
				A: levelDesc(uint64(100 + j%first)), B: levelDesc(uint64(100 + (7*j+3)%first)), Out: levelDesc(uint64(10000 + j)),
			})
		}
		w.Stages = append(w.Stages, st)
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
	for id, t := range x.tensors {
		r.norms[id] = t.Norm()
	}
	for id, n := range x.norms {
		r.norms[id] = n
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
		w := levelStream(width, width)
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
// earlier in the stream wins — the same error at every pool size.
func TestLevelFirstError(t *testing.T) {
	odd := tensor.Desc{ID: 6, Rank: tensor.RankMeson, Dim: levelDim / 2, Batch: 1}
	for _, c := range []struct {
		name  string
		plant func(pairs []workload.Pair)
		want  string
	}{
		{"missing-beats-earlier-mismatch", func(pairs []workload.Pair) {
			pairs[5].B = odd
			pairs[levelWidth+3].A = levelDesc(999)
		}, "numeric: operand t999 missing"},
		{"first-mismatch-in-stream-order", func(pairs []workload.Pair) {
			pairs[levelWidth+1].B = odd
			pairs[2*levelWidth+5].A = odd
		}, fmt.Sprintf("shape mismatch %v vs %v", levelDesc(uint64(1+(levelWidth+1)%5)), odd)},
	} {
		w := levelStream(10*levelWidth, 0)
		w.Inputs = append(w.Inputs, odd)
		c.plant(w.Stages[0].Pairs)
		for _, pool := range levelPools {
			got := runLevels(t, w, pool)
			if got.err == nil || !strings.Contains(got.err.Error(), c.want) {
				t.Errorf("%s pool=%d: error %v, want one containing %q", c.name, pool, got.err, c.want)
			}
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
	w := levelStream(10*levelWidth, 0)
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
			produced := len(x.tensors) + len(x.norms) - len(w.Inputs)
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
		w := levelStream(c.finals, 0)
		if c.live > 0 {
			w = levelStream(c.live, c.finals)
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

// TestLevelPartition pins the level partitioner on the edge shapes it
// guards: independent stages fuse whole, and RAW/WAW/WAR hazards each
// force a level split that keeps every level internally independent.
func TestLevelPartition(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1} }
	var lv levelizer
	shared := []workload.Pair{
		{A: d(1), B: d(2), Out: d(10)},
		{A: d(1), B: d(3), Out: d(11)}, // shared input is fine
	}
	if levels := lv.partition(shared); len(levels) != 1 || len(levels[0]) != 2 {
		t.Errorf("shared-input stage split into %d levels, want one level of 2", len(levels))
	}
	raw := []workload.Pair{
		{A: d(1), B: d(2), Out: d(10)},
		{A: d(10), B: d(2), Out: d(11)}, // reads same-stage output 10
		{A: d(1), B: d(11), Out: d(12)}, // chains further
	}
	if levels := lv.partition(raw); len(levels) != 3 {
		t.Errorf("chained stage split into %d levels, want 3", len(levels))
	}
	waw := []workload.Pair{
		{A: d(1), B: d(2), Out: d(10)},
		{A: d(3), B: d(4), Out: d(10)}, // duplicate output
	}
	if levels := lv.partition(waw); len(levels) != 2 {
		t.Errorf("duplicate-output stage split into %d levels, want 2", len(levels))
	}
	war := []workload.Pair{
		{A: d(10), B: d(2), Out: d(11)}, // reads an ID a later pair overwrites
		{A: d(1), B: d(2), Out: d(10)},
	}
	levels := lv.partition(war)
	if len(levels) != 2 {
		t.Fatalf("write-after-read stage split into %d levels, want 2", len(levels))
	}
	if levels[0][0].Out.ID != 11 || levels[1][0].Out.ID != 10 {
		t.Errorf("write-after-read levels out of order: %d then %d, want 11 then 10",
			levels[0][0].Out.ID, levels[1][0].Out.ID)
	}
	// Reuse across calls must not leak floors between stages.
	if again := lv.partition(shared); len(again) != 1 {
		t.Errorf("levelizer reuse split independent stage into %d levels", len(again))
	}
}
