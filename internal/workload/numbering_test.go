package workload_test

import (
	"os"
	"testing"

	"micco/internal/redstar"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// TestFromStagesMatchesMapNumbering: FromStages' ID-indexed table numbers a
// stream exactly as number's id→slot map does — the same slot for every
// operand and output, the same LastUse flags, the same repeat rate per
// stage and the same TensorIDs — on every bundled correlator, both ladder
// decks and a hand-built stream whose IDs leave gaps.
func TestFromStagesMatchesMapNumbering(t *testing.T) {
	streams := map[string]func() ([][]workload.Pair, []tensor.Desc){}
	fromBuild := func(c *redstar.Correlator) func() ([][]workload.Pair, []tensor.Desc) {
		return func() ([][]workload.Pair, []tensor.Desc) {
			b, err := c.BuildPlan()
			if err != nil {
				t.Fatal(err)
			}
			var stages [][]workload.Pair
			for _, st := range b.Workload.Stages {
				stages = append(stages, st.Pairs)
			}
			return stages, b.Workload.Inputs
		}
	}
	for _, c := range redstar.Bundled() {
		streams[c.Name] = fromBuild(c)
	}
	for _, path := range []string{"../../bench/decks/a1_rhopi_t4_b2.json", "../../bench/decks/f0d4_t64_m3.json"} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := redstar.LoadDeck(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		streams[path] = fromBuild(c)
	}
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	streams["gaps"] = func() ([][]workload.Pair, []tensor.Desc) {
		// IDs 5 and 17 up to 40, none of 1-4, 6-10 or 13-16: unused table
		// entries between and below the tensors, an input listed after a
		// higher one, a self-pair, and an output read in its own stage.
		return [][]workload.Pair{
			{{A: d(17), B: d(5), Out: d(40)}, {A: d(40), B: d(40), Out: d(12)}},
			{{A: d(5), B: d(12), Out: d(11)}, {A: d(17), B: d(11), Out: d(30)}},
			{{A: d(30), B: d(40), Out: d(31)}},
		}, []tensor.Desc{d(17), d(5)}
	}
	for name, stream := range streams {
		stages, inputs := stream()
		want := workload.NumberedByMap(name, stages, inputs)
		got, err := workload.FromStages(name, stages, inputs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ids, wantIDs := got.TensorIDs(), want.TensorIDs()
		if len(ids) != len(wantIDs) {
			t.Fatalf("%s: %d tensors numbered, map numbering %d", name, len(ids), len(wantIDs))
		}
		for s := range ids {
			if ids[s] != wantIDs[s] {
				t.Fatalf("%s: slot %d is tensor %d, map numbering %d", name, s, ids[s], wantIDs[s])
			}
		}
		if len(got.Stages) != len(want.Stages) {
			t.Fatalf("%s: %d stages, map numbering %d", name, len(got.Stages), len(want.Stages))
		}
		for si := range want.Stages {
			g, w := &got.Stages[si], &want.Stages[si]
			if g.RepeatRate != w.RepeatRate || len(g.Pairs) != len(w.Pairs) {
				t.Fatalf("%s: stage %d repeat rate %v over %d pairs, map numbering %v over %d",
					name, si, g.RepeatRate, len(g.Pairs), w.RepeatRate, len(w.Pairs))
			}
			for pi := range w.Pairs {
				gp, wp := &g.Pairs[pi], &w.Pairs[pi]
				ga, gb, gout := gp.Slots()
				wa, wb, wout := wp.Slots()
				if ga != wa || gb != wb || gout != wout || gp.LastUse != wp.LastUse {
					t.Fatalf("%s: pair (%d,%d) slots (%d,%d,%d) last use %v, map numbering (%d,%d,%d) %v",
						name, si, pi, ga, gb, gout, gp.LastUse, wa, wb, wout, wp.LastUse)
				}
			}
		}
	}
}
