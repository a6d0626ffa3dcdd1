package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"micco/internal/tensor"
)

func baseCfg() Config {
	return Config{
		Seed:       1,
		Stages:     10,
		VectorSize: 32,
		TensorDim:  384,
		Batch:      2,
		Rank:       tensor.RankMeson,
		RepeatRate: 0.5,
		Dist:       Uniform,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseCfg().Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Stages = 0 },
		func(c *Config) { c.VectorSize = -1 },
		func(c *Config) { c.TensorDim = 0 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.Rank = 5 },
		func(c *Config) { c.RepeatRate = 1.5 },
		func(c *Config) { c.RepeatRate = -0.1 },
		func(c *Config) { c.Dist = Distribution(9) },
	}
	for i, m := range mutations {
		c := baseCfg()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("Generate accepted mutation %d", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := baseCfg()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Stages) != cfg.Stages {
		t.Fatalf("stages = %d, want %d", len(w.Stages), cfg.Stages)
	}
	for i, st := range w.Stages {
		if st.Index != i {
			t.Errorf("stage %d has index %d", i, st.Index)
		}
		if len(st.Pairs) != cfg.VectorSize {
			t.Errorf("stage %d pairs = %d, want %d", i, len(st.Pairs), cfg.VectorSize)
		}
		if st.NumTensors() != 2*cfg.VectorSize {
			t.Errorf("stage %d NumTensors = %d", i, st.NumTensors())
		}
		for _, p := range st.Pairs {
			for _, d := range []tensor.Desc{p.A, p.B, p.Out} {
				if d.Dim != cfg.TensorDim || d.Batch != cfg.Batch || d.Rank != cfg.Rank {
					t.Fatalf("pair tensor %v does not match config", d)
				}
			}
		}
	}
	if w.NumPairs() != cfg.Stages*cfg.VectorSize {
		t.Errorf("NumPairs = %d", w.NumPairs())
	}
	if len(w.Outputs) != w.NumPairs() {
		t.Errorf("Outputs = %d, want %d", len(w.Outputs), w.NumPairs())
	}
}

func TestGenerateDeterminism(t *testing.T) {
	w1, _ := Generate(baseCfg())
	w2, _ := Generate(baseCfg())
	if w1.NumPairs() != w2.NumPairs() || len(w1.Inputs) != len(w2.Inputs) {
		t.Fatal("same seed produced different workloads")
	}
	for s := range w1.Stages {
		for i := range w1.Stages[s].Pairs {
			p1, p2 := w1.Stages[s].Pairs[i], w2.Stages[s].Pairs[i]
			if p1.A.ID != p2.A.ID || p1.B.ID != p2.B.ID || p1.Out.ID != p2.Out.ID {
				t.Fatal("same seed produced different pair streams")
			}
		}
	}
	cfg := baseCfg()
	cfg.Seed = 2
	w3, _ := Generate(cfg)
	same := true
	for s := range w1.Stages {
		for i := range w1.Stages[s].Pairs {
			if w1.Stages[s].Pairs[i].A.ID != w3.Stages[s].Pairs[i].A.ID {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestRepeatRateTracksTarget(t *testing.T) {
	for _, target := range []float64{0.25, 0.5, 0.75, 1.0} {
		cfg := baseCfg()
		cfg.Stages = 40
		cfg.RepeatRate = target
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := w.MeasuredRepeatRate()
		// Stage 0 has no pool, so measured rate runs below target; allow
		// a tolerance scaled by stage count plus sampling noise.
		slack := 1.0/float64(cfg.Stages) + 0.06
		if math.Abs(got-target) > slack {
			t.Errorf("target %.2f: measured %.3f (slack %.3f)", target, got, slack)
		}
	}
}

func TestZeroRepeatRateAllFresh(t *testing.T) {
	cfg := baseCfg()
	cfg.RepeatRate = 0
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MeasuredRepeatRate(); got != 0 {
		t.Errorf("repeat rate %v with target 0", got)
	}
	if len(w.Inputs) != 2*cfg.Stages*cfg.VectorSize {
		t.Errorf("inputs = %d, want %d", len(w.Inputs), 2*cfg.Stages*cfg.VectorSize)
	}
}

func TestGaussianConcentratesReuse(t *testing.T) {
	countUses := func(d Distribution) map[uint64]int {
		cfg := baseCfg()
		cfg.Stages = 30
		cfg.Dist = d
		cfg.RepeatRate = 0.8
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		uses := make(map[uint64]int)
		for _, st := range w.Stages {
			for _, p := range st.Pairs {
				uses[p.A.ID]++
				uses[p.B.ID]++
			}
		}
		return uses
	}
	maxUse := func(m map[uint64]int) int {
		best := 0
		for _, v := range m {
			if v > best {
				best = v
			}
		}
		return best
	}
	u, g := countUses(Uniform), countUses(Gaussian)
	if maxUse(g) <= maxUse(u) {
		t.Errorf("Gaussian max reuse %d should exceed Uniform %d", maxUse(g), maxUse(u))
	}
}

func TestLastUseMarksExactlyFinalConsumer(t *testing.T) {
	w, err := Generate(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	lastSeen := make(map[uint64][3]int) // id -> stage, pair, slot of final use
	for si, st := range w.Stages {
		for pi, p := range st.Pairs {
			lastSeen[p.A.ID] = [3]int{si, pi, 0}
			lastSeen[p.B.ID] = [3]int{si, pi, 1}
		}
	}
	marks := 0
	for si, st := range w.Stages {
		for pi, p := range st.Pairs {
			for slot, id := range []uint64{p.A.ID, p.B.ID} {
				want := lastSeen[id] == [3]int{si, pi, slot}
				if p.LastUse[slot] != want {
					t.Fatalf("stage %d pair %d slot %d: LastUse=%v want %v",
						si, pi, slot, p.LastUse[slot], want)
				}
				if p.LastUse[slot] {
					marks++
				}
			}
		}
	}
	if marks != len(lastSeen) {
		t.Errorf("LastUse marks = %d, want one per distinct input = %d", marks, len(lastSeen))
	}
}

func TestBytesAccounting(t *testing.T) {
	cfg := baseCfg()
	cfg.Stages = 2
	cfg.VectorSize = 4
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := tensor.Desc{Rank: cfg.Rank, Dim: cfg.TensorDim, Batch: cfg.Batch}.Bytes()
	if got, want := w.UniqueInputBytes(), per*int64(len(w.Inputs)); got != want {
		t.Errorf("UniqueInputBytes = %d, want %d", got, want)
	}
	if got, want := w.TotalUniqueBytes(), per*int64(len(w.Inputs)+len(w.Outputs)); got != want {
		t.Errorf("TotalUniqueBytes = %d, want %d", got, want)
	}
	perFlops, _ := tensor.ContractFLOPs(
		tensor.Desc{ID: 1, Rank: cfg.Rank, Dim: cfg.TensorDim, Batch: cfg.Batch},
		tensor.Desc{ID: 2, Rank: cfg.Rank, Dim: cfg.TensorDim, Batch: cfg.Batch})
	if got, want := w.TotalFLOPs(), perFlops*int64(w.NumPairs()); got != want {
		t.Errorf("TotalFLOPs = %d, want %d", got, want)
	}
}

func TestStageFeatures(t *testing.T) {
	cfg := baseCfg()
	cfg.Dist = Gaussian
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := w.StageFeatures(3)
	if f.VectorSize != float64(cfg.VectorSize) || f.TensorDim != float64(cfg.TensorDim) {
		t.Errorf("features = %+v", f)
	}
	if f.DistBias != 1 {
		t.Error("Gaussian should report biased distribution")
	}
	if f.RepeatRate != w.Stages[3].RepeatRate {
		t.Error("RepeatRate should match the stage's measured rate")
	}
	row := f.AsSlice()
	if len(row) != len(FeatureNames()) {
		t.Errorf("AsSlice length %d != FeatureNames length %d", len(row), len(FeatureNames()))
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "Uniform" || Gaussian.String() != "Gaussian" {
		t.Error("distribution names wrong")
	}
	if Distribution(7).String() == "" {
		t.Error("unknown distribution should still print")
	}
	if Uniform.Biased() || !Gaussian.Biased() {
		t.Error("Biased() wrong")
	}
}

// Property: every generated workload is structurally sound — IDs are unique
// between inputs and outputs, every pair's operands are registered inputs or
// prior outputs, and stage repeat rates are in [0, 1].
func TestGenerateInvariants(t *testing.T) {
	f := func(seed int64, vsRaw, dimRaw uint8, rateRaw uint8, gaussian bool) bool {
		cfg := Config{
			Seed:       seed,
			Stages:     3 + int(vsRaw%5),
			VectorSize: 1 + int(vsRaw%40),
			TensorDim:  1 + int(dimRaw),
			Batch:      1 + int(dimRaw%3),
			Rank:       tensor.RankMeson,
			RepeatRate: float64(rateRaw%101) / 100,
			Dist:       Uniform,
		}
		if gaussian {
			cfg.Dist = Gaussian
		}
		w, err := Generate(cfg)
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool)
		for _, d := range w.Inputs {
			if seen[d.ID] {
				return false
			}
			seen[d.ID] = true
		}
		for _, d := range w.Outputs {
			if seen[d.ID] {
				return false
			}
			seen[d.ID] = true
		}
		inputs := make(map[uint64]bool, len(w.Inputs))
		for _, d := range w.Inputs {
			inputs[d.ID] = true
		}
		for _, st := range w.Stages {
			if st.RepeatRate < 0 || st.RepeatRate > 1 {
				return false
			}
			for _, p := range st.Pairs {
				if !inputs[p.A.ID] || !inputs[p.B.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

// TestWorkloadJSONRoundTrip: decoding a workload's JSON rebuilds it
// exactly — numbering, LastUse flags, repeat rates, Outputs and Cfg — for a
// generated workload with intermediate reuse and for a FromStages one.
func TestWorkloadJSONRoundTrip(t *testing.T) {
	cfg := baseCfg()
	cfg.Stages, cfg.VectorSize, cfg.ChainRate = 5, 6, 0.5
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stages [][]Pair
	for _, st := range w.Stages {
		stages = append(stages, append([]Pair(nil), st.Pairs...))
	}
	staged, err := FromStages("staged", stages, w.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Workload{w, staged} {
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back Workload
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !reflect.DeepEqual(&back, w) {
			t.Errorf("%s: round trip changed the workload", w.Name)
		}
	}
}

// TestDecodeValidation: a workload file is decoded through FromStages'
// checks and must agree with the LastUse flags and Outputs its stream
// implies; every refusal wraps ErrInvalidStages and names the stage and
// the tensor. The duplicate and input-colliding outputs are the streams
// whose liveness an ID-keyed executor could not count.
func TestDecodeValidation(t *testing.T) {
	cfg := baseCfg()
	cfg.Stages, cfg.VectorSize, cfg.TensorDim = 3, 4, 8
	// Each edit makes one flaw in a generated workload and returns what the
	// refusal must say.
	for _, c := range []struct {
		name string
		edit func(w *Workload) string
	}{
		{"no stages", func(w *Workload) string { w.Stages = nil; return "no stages" }},
		{"empty stage", func(w *Workload) string { w.Stages[1].Pairs = nil; return "stage 1 is empty" }},
		{"unknown operand", func(w *Workload) string {
			id := w.Outputs[len(w.Outputs)-1].ID + 1
			w.Stages[1].Pairs[2].B.ID = id
			return fmt.Sprintf("stage 1 operand t%d unknown", id)
		}},
		{"duplicate output", func(w *Workload) string {
			w.Stages[2].Pairs[1].Out = w.Stages[0].Pairs[3].Out
			return fmt.Sprintf("stage 2 output t%d already exists", w.Stages[0].Pairs[3].Out.ID)
		}},
		{"output equals an input", func(w *Workload) string {
			w.Stages[0].Pairs[1].Out = w.Inputs[0]
			return fmt.Sprintf("stage 0 output t%d already exists", w.Inputs[0].ID)
		}},
		{"invalid input", func(w *Workload) string { w.Inputs[0].Dim = 0; return "invalid input tensor" }},
		{"input past the size bound", func(w *Workload) string { w.Inputs[0].Dim = 1 << 32; return "invalid input tensor" }},
		{"operand named with another shape", func(w *Workload) string {
			w.Inputs[0].Batch++
			return fmt.Sprintf("stage 0 names operand %v, made as %v", w.Stages[0].Pairs[0].A, w.Inputs[0])
		}},
		{"output shape", func(w *Workload) string {
			w.Stages[1].Pairs[0].Out.Batch++
			return fmt.Sprintf("stage 1 output t%d", w.Stages[1].Pairs[0].Out.ID)
		}},
		{"sparse ID", func(w *Workload) string { w.Stages[2].Pairs[0].Out.ID = 1 << 40; return "largest tensor ID" }},
		{"false LastUse", func(w *Workload) string {
			p := &w.Stages[2].Pairs[3]
			p.LastUse[1] = !p.LastUse[1]
			return fmt.Sprintf("stage 2 marks LastUse %v of operand t%d", p.LastUse[1], p.B.ID)
		}},
		{"missing output", func(w *Workload) string { w.Outputs = w.Outputs[:len(w.Outputs)-1]; return "Outputs lists" }},
		{"outputs out of order", func(w *Workload) string {
			o := w.Outputs
			o[4], o[5] = o[5], o[4]
			return fmt.Sprintf("stage 1 output t%d is not Outputs[4]", o[5].ID)
		}},
		{"extra output", func(w *Workload) string { w.Outputs = append(w.Outputs, w.Inputs[0]); return "Outputs lists" }},
	} {
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := c.edit(w)
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back Workload
		err = json.Unmarshal(raw, &back)
		if !errors.Is(err, ErrInvalidStages) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one wrapping ErrInvalidStages containing %q", c.name, err, want)
		}
		if back.TensorIDs() != nil {
			t.Errorf("%s: a refused decode left a numbered workload", c.name)
		}
	}
}

func TestFromStagesValidation(t *testing.T) {
	in1 := tensor.Desc{ID: 1, Rank: tensor.RankMeson, Dim: 4, Batch: 1}
	in2 := tensor.Desc{ID: 2, Rank: tensor.RankMeson, Dim: 4, Batch: 1}
	out1 := tensor.Desc{ID: 3, Rank: tensor.RankMeson, Dim: 4, Batch: 1}
	out2 := tensor.Desc{ID: 4, Rank: tensor.RankMeson, Dim: 4, Batch: 1}
	good := [][]Pair{
		{{A: in1, B: in2, Out: out1}},
		{{A: in1, B: out1, Out: out2}}, // consumes an intermediate
	}
	w, err := FromStages("good", good, []tensor.Desc{in1, in2})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Stages) != 2 || w.Cfg.Dist != Gaussian {
		t.Errorf("FromStages shape: %+v", w.Cfg)
	}
	// Stage 1's repeat rate must count in1 (seen) and out1 (intermediate).
	if w.Stages[1].RepeatRate != 1.0 {
		t.Errorf("stage 1 repeat rate = %v, want 1.0", w.Stages[1].RepeatRate)
	}
	// Last uses: in2 dies in stage 0, in1 and out1 in stage 1.
	if !w.Stages[0].Pairs[0].LastUse[1] {
		t.Error("in2 should be marked last-used in stage 0")
	}
	if !w.Stages[1].Pairs[0].LastUse[0] || !w.Stages[1].Pairs[0].LastUse[1] {
		t.Error("stage 1 operands should be last uses")
	}

	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	cases := []struct {
		name   string
		stages [][]Pair
		inputs []tensor.Desc
	}{
		{"no stages", nil, []tensor.Desc{in1}},
		{"empty stage", [][]Pair{{}}, []tensor.Desc{in1}},
		{"unknown operand", [][]Pair{{{A: in1, B: in2, Out: out1}}}, []tensor.Desc{in1}},
		{"operand produced later", [][]Pair{{{A: in1, B: out1, Out: out2}}, {{A: in1, B: in2, Out: out1}}}, []tensor.Desc{in1, in2}},
		{"duplicate input", [][]Pair{{{A: in1, B: in1, Out: out1}}}, []tensor.Desc{in1, in1}},
		{"invalid input", [][]Pair{{{A: in1, B: in1, Out: out1}}}, []tensor.Desc{{}}},
		{"output collides", [][]Pair{{{A: in1, B: in2, Out: in1}}}, []tensor.Desc{in1, in2}},
		{"output collides with an output", [][]Pair{{{A: in1, B: in2, Out: out1}, {A: in1, B: in1, Out: out1}}}, []tensor.Desc{in1, in2}},
		// Three tensors: an ID past 8 x 3 would size the table from the ID.
		{"sparse IDs", [][]Pair{{{A: in1, B: d(25), Out: out1}}}, []tensor.Desc{in1, d(25)}},
		{"sparse output ID", [][]Pair{{{A: in1, B: in2, Out: d(1 << 40)}}}, []tensor.Desc{in1, in2}},
	}
	for _, c := range cases {
		w, err := FromStages(c.name, c.stages, c.inputs)
		if !errors.Is(err, ErrInvalidStages) || w != nil {
			t.Errorf("%s: workload %v, error %v; want an error wrapping ErrInvalidStages", c.name, w, err)
		}
	}
	// A tensor may hold exactly maxTensorBytes, not one element more.
	for _, c := range []struct {
		dim, batch int
		ok         bool
	}{{1 << 18, 1, true}, {1 << 18, 2, false}, {1 << 32, 1, false}} {
		big := tensor.Desc{ID: 1, Rank: tensor.RankMeson, Dim: c.dim, Batch: c.batch}
		out := big
		out.ID = 2
		_, err := FromStages("big", [][]Pair{{{A: big, B: big, Out: out}}}, []tensor.Desc{big})
		if (err == nil) != c.ok {
			t.Errorf("dim %d batch %d: error %v, want accepted %v", c.dim, c.batch, err, c.ok)
		}
	}
	// The largest ID may be exactly maxIDSpread times the tensor count.
	if _, err := FromStages("spread", [][]Pair{{{A: in1, B: d(24), Out: out1}}}, []tensor.Desc{in1, d(24)}); err != nil {
		t.Errorf("largest ID 8 x 3 tensors: %v", err)
	}
}

// TestFromStagesRecomputesLastUse: FromStages adopts the caller's pairs and
// derives their LastUse flags from the stream, whatever flags they carried,
// and building twice from the same stages gives the same workload as
// building once from a fresh copy.
func TestFromStagesRecomputesLastUse(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	inputs := []tensor.Desc{d(1), d(2)}
	stages := func(preset [2]bool) [][]Pair {
		return [][]Pair{
			{{A: d(1), B: d(2), Out: d(3), LastUse: preset}},
			{{A: d(1), B: d(2), Out: d(4), LastUse: preset}, {A: d(3), B: d(3), Out: d(5), LastUse: preset}},
		}
	}
	want := [][][2]bool{{{false, false}}, {{true, true}, {true, false}}}
	shared := stages([2]bool{true, true})
	var built []*Workload
	for _, in := range [][][]Pair{shared, shared, stages([2]bool{false, true})} {
		w, err := FromStages("flags", in, inputs)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, w)
	}
	for i, w := range built {
		for si, st := range w.Stages {
			for pi, p := range st.Pairs {
				if p.LastUse != want[si][pi] {
					t.Errorf("build %d: pair (%d,%d) LastUse = %v, want %v", i, si, pi, p.LastUse, want[si][pi])
				}
			}
		}
		if !reflect.DeepEqual(w, built[2]) {
			t.Errorf("build %d differs from a build of fresh stages", i)
		}
	}
	if &built[0].Stages[0].Pairs[0] != &shared[0][0] {
		t.Error("FromStages copied the caller's pairs instead of adopting them")
	}
}

func TestChainedIntermediateReuse(t *testing.T) {
	cfg := baseCfg()
	cfg.Stages = 8
	cfg.ChainRate = 0.6
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]bool, len(w.Inputs))
	for _, d := range w.Inputs {
		inputs[d.ID] = true
	}
	produced := make(map[uint64]int) // output ID -> producing stage
	chained := 0
	for si, st := range w.Stages {
		for _, p := range st.Pairs {
			for _, op := range []tensor.Desc{p.A, p.B} {
				if inputs[op.ID] {
					continue
				}
				ps, ok := produced[op.ID]
				if !ok {
					t.Fatalf("stage %d operand t%d is neither input nor intermediate", si, op.ID)
				}
				if ps >= si {
					t.Fatalf("stage %d consumes intermediate produced at stage %d", si, ps)
				}
				chained++
			}
			produced[p.Out.ID] = si
		}
	}
	if chained == 0 {
		t.Error("ChainRate 0.6 produced no intermediate reuse")
	}
	// Chain rate zero must stay inputs-only.
	cfg.ChainRate = 0
	w0, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in0 := make(map[uint64]bool, len(w0.Inputs))
	for _, d := range w0.Inputs {
		in0[d.ID] = true
	}
	for _, st := range w0.Stages {
		for _, p := range st.Pairs {
			if !in0[p.A.ID] || !in0[p.B.ID] {
				t.Fatal("ChainRate 0 should only repeat inputs")
			}
		}
	}
	// Validation rejects out-of-range chain rates.
	cfg.ChainRate = 1.5
	if _, err := Generate(cfg); err == nil {
		t.Error("ChainRate > 1: want error")
	}
}

// checkNumbering asserts the workload's tensor table lists Inputs then
// Outputs by position and that every pair's slots name its three tensors.
func checkNumbering(t *testing.T, w *Workload) {
	t.Helper()
	ids := w.TensorIDs()
	if len(ids) < len(w.Inputs)+len(w.Outputs) {
		t.Fatalf("%d slots for %d inputs and %d outputs", len(ids), len(w.Inputs), len(w.Outputs))
	}
	for i, d := range w.Inputs {
		if ids[i] != d.ID {
			t.Fatalf("slot %d is tensor %d, want input %d", i, ids[i], d.ID)
		}
	}
	for i, d := range w.Outputs {
		if s := len(w.Inputs) + i; ids[s] != d.ID {
			t.Fatalf("slot %d is tensor %d, want output %d", s, ids[s], d.ID)
		}
	}
	for si := range w.Stages {
		for pi := range w.Stages[si].Pairs {
			p := &w.Stages[si].Pairs[pi]
			a, b, out := p.Slots()
			if ids[a] != p.A.ID || ids[b] != p.B.ID || ids[out] != p.Out.ID {
				t.Fatalf("pair (%d,%d) of t%d, t%d -> t%d has slots %d, %d -> %d, which are t%d, t%d -> t%d",
					si, pi, p.A.ID, p.B.ID, p.Out.ID, a, b, out, ids[a], ids[b], ids[out])
			}
		}
	}
	if again := w.TensorIDs(); len(ids) > 0 && &again[0] != &ids[0] {
		t.Error("a second TensorIDs call re-made the numbering")
	}
}

// TestTensorNumbering: Generate, FromStages and the JSON decode number
// their tensors as they build; a struct literal has no numbering.
func TestTensorNumbering(t *testing.T) {
	cfg := baseCfg()
	cfg.Stages, cfg.VectorSize, cfg.ChainRate = 4, 16, 0.4
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkNumbering(t, w)

	var stages [][]Pair
	for _, st := range w.Stages {
		stages = append(stages, st.Pairs)
	}
	staged, err := FromStages("staged", stages, w.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	checkNumbering(t, staged)

	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Workload
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	checkNumbering(t, &decoded)

	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	hand := &Workload{
		Name:    "hand",
		Inputs:  []tensor.Desc{d(7), d(3)},
		Outputs: []tensor.Desc{d(40)},
		Stages:  []Stage{{Pairs: []Pair{{A: d(7), B: d(3), Out: d(40)}}}},
	}
	if ids := hand.TensorIDs(); ids != nil {
		t.Errorf("struct literal numbered %v, want no numbering", ids)
	}
}

// TestSelfPairMarksOneLastUse: a tensor contracted with itself at its last
// use is marked once, on the A side — the side the engine discards — and a
// self-pair that is not the last use is not marked at all.
func TestSelfPairMarksOneLastUse(t *testing.T) {
	d := func(id uint64) tensor.Desc { return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 4, Batch: 1} }
	w, err := FromStages("self", [][]Pair{
		{{A: d(1), B: d(1), Out: d(10)}},
		{{A: d(1), B: d(1), Out: d(11)}, {A: d(10), B: d(11), Out: d(12)}},
	}, []tensor.Desc{d(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stages[0].Pairs[0].LastUse; got != [2]bool{false, false} {
		t.Errorf("earlier self-pair LastUse = %v, want none", got)
	}
	if got := w.Stages[1].Pairs[0].LastUse; got != [2]bool{true, false} {
		t.Errorf("last self-pair LastUse = %v, want the A side only", got)
	}
	if got := w.Stages[1].Pairs[1].LastUse; got != [2]bool{true, true} {
		t.Errorf("ordinary last pair LastUse = %v, want both", got)
	}
}
