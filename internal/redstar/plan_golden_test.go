package redstar

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"testing"

	"micco/internal/graph"
	"micco/internal/tensor"
)

// planDigests fingerprints everything the front end hands on: the plan's
// ops, stage index, inputs and finals (each under the ID of the graph it
// concludes, graphs being b's expanded graphs in ID order), the per-time
// finals and the scheduler workload, each as its own SHA-256 so a drift
// names the part that moved.
func planDigests(b *Build, graphs []*graph.Graph) map[string]string {
	desc := func(h hash.Hash, d tensor.Desc) { fmt.Fprintf(h, "%d/%d/%d/%d;", d.ID, d.Rank, d.Dim, d.Batch) }
	part := func(fill func(h hash.Hash)) string {
		h := sha256.New()
		fill(h)
		return hex.EncodeToString(h.Sum(nil))
	}
	return map[string]string{
		"ops": part(func(h hash.Hash) {
			for _, op := range b.Plan.Ops {
				desc(h, op.A)
				desc(h, op.B)
				desc(h, op.Out)
				fmt.Fprintf(h, "s%d\n", op.Stage)
			}
		}),
		"stageOps": part(func(h hash.Hash) {
			for _, ops := range b.Plan.StageOps {
				fmt.Fprintf(h, "%v\n", ops)
			}
		}),
		"inputs": part(func(h hash.Hash) {
			for _, d := range b.Plan.Inputs {
				desc(h, d)
			}
			fmt.Fprintf(h, "shared%d blocks%d graphs%d", b.Plan.SharedOps, b.Blocks, b.NumGraphs)
		}),
		"finals": part(func(h hash.Hash) {
			for i, g := range graphs {
				fmt.Fprintf(h, "g%d:", g.ID)
				desc(h, b.Plan.Finals[i])
			}
		}),
		"finalsByTime": part(func(h hash.Hash) {
			times := make([]int, 0, len(b.FinalsByTime))
			for t := range b.FinalsByTime {
				times = append(times, t)
			}
			sort.Ints(times)
			for _, t := range times {
				fmt.Fprintf(h, "t%d:", t)
				for _, d := range b.FinalsByTime[t] {
					desc(h, d)
				}
			}
		}),
		"workload": part(func(h hash.Hash) {
			w := b.Workload
			fmt.Fprintf(h, "%s %+v\n", w.Name, w.Cfg)
			for _, d := range w.Inputs {
				desc(h, d)
			}
			for _, d := range w.Outputs {
				desc(h, d)
			}
			for _, st := range w.Stages {
				fmt.Fprintf(h, "stage%d r%x\n", st.Index, math.Float64bits(st.RepeatRate))
				for _, p := range st.Pairs {
					desc(h, p.A)
					desc(h, p.B)
					desc(h, p.Out)
					fmt.Fprintf(h, "%v\n", p.LastUse)
				}
			}
		}),
	}
}

// TestPlanGolden pins the compiled form of the three bundled correlators
// and of the two decks the end-to-end ladder runs, bit for bit. The
// digests were recorded at the commit before Expand became a stamped
// template and Dedup an integer key; graph IDs, tensor IDs, op order and
// staging must never move under a front-end optimisation.
func TestPlanGolden(t *testing.T) {
	fromFile := func(path string) *Correlator {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		c, err := LoadDeck(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return c
	}
	cases := []struct {
		name string
		c    *Correlator
	}{
		{"al_rhopi", A1RhoPi()},
		{"f0d2", F0D2()},
		{"f0d4", F0D4()},
		{"bench/a1_rhopi_t4_b2", fromFile("../../bench/decks/a1_rhopi_t4_b2.json")},
		{"bench/f0d4_t64_m3", fromFile("../../bench/decks/f0d4_t64_m3.json")},
	}
	for _, tc := range cases {
		b, err := tc.c.BuildPlan()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		specs, err := tc.c.specs()
		if err != nil {
			t.Fatal(err)
		}
		_, graphs, _, err := tc.c.expand(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(graphs) != len(b.Plan.Finals) {
			t.Fatalf("%s: %d graphs, %d finals", tc.name, len(graphs), len(b.Plan.Finals))
		}
		want := goldenPlans[tc.name]
		for part, sum := range planDigests(b, graphs) {
			if want[part] != sum {
				t.Errorf("%s: %s digest = %s, want %s", tc.name, part, sum, want[part])
			}
		}
	}
}

// goldenPlans holds the digests recorded from the parent commit.
var goldenPlans = map[string]map[string]string{
	"al_rhopi": {
		"ops":          "52194c990b93b4a295b044a0a4873f572b005eb3ab4a404511fce0b765c38471",
		"stageOps":     "8e6b4e127e4e3327da924e231526401ff38c5aeacb9b5585db09206eaba17663",
		"inputs":       "2c7af16c7f75d37b11724474f1b7bad872187580f49f148a2214d715fdfb1513",
		"finals":       "6f486cd3f1a8a21dea56fb08641ac7858a9df3c85e68a307f59bcd4e2fefec8d",
		"finalsByTime": "e2bd9863992cd6da74a27635294cc7e391435de48de9a90da2a92e1822a88765",
		"workload":     "984106bf473d51e32032950fd8fa90fb906a5e4e27ebc6ba9b336d49d1e03621",
	},
	"f0d2": {
		"ops":          "5cb35fa667a6d68c9be15e3a58eb35590d08a61c6586455a0c716220f5464bb6",
		"stageOps":     "2de5424119d98596ecc98a57944fb435cb22dc20463f655c243c6670ddb1a6b4",
		"inputs":       "daf2bae3812121cdc6f9eff3e636caefa191d1a3a84458056b6ed409edd069ea",
		"finals":       "851f157d11360f78369c022a308133852d19e880a988761413d21b6045e382c7",
		"finalsByTime": "f0fba607d7fc30bf55ff89fc779385afe84ff45ddbca6d74cf1f09df5f5496d6",
		"workload":     "ee67ee219d7e92c42f8164e3d974b9e98ee5d27dfd36567c62ff750c85e71b6a",
	},
	"f0d4": {
		"ops":          "0764a85e50731d2c869aac115addbdabc5d5bcaabb667745e68d65f92e9a23f5",
		"stageOps":     "c674e894a0aeb74b42f9f1470c9b55f5ffc08215b37c027d8c624c8a0d73e124",
		"inputs":       "ae0dd50d40c2e4317bd0bb49dd95515ce4bd44994c0182385818052481050b92",
		"finals":       "58349f19619b13e9abef304e1758f36b39245c87ccc3aa5596134235ba5fe585",
		"finalsByTime": "4697bf6a0293c0c484ff8f521a278aff7ab49bbf554a2be3f64f6d9215b9c39d",
		"workload":     "9aa2f29bfa3a67d932babc700030df253ab53b4e132ec00309eb063e3f21b535",
	},
	"bench/a1_rhopi_t4_b2": {
		"ops":          "71304a11bf3c55084b95e823d4ecb02d8270f4eaa04253dbdefc5635bae284f7",
		"stageOps":     "9b7c2066c41202dd0aa875866e30722fe355bfd7aaa910ef3bbe8ed7bf2117bf",
		"inputs":       "0472c7e32d683b5a82d5d7664350b89bb0d1a01947c2debfa29d0800052e0584",
		"finals":       "2ebc0fa4e466cb9ee1c8a9d5ee1533262d8386c4134d558472c35c27ac0827a1",
		"finalsByTime": "c286281922bfab7e3c5ffcce23b610e4a355e2abed0c7b9812db6bfbf7aed856",
		"workload":     "b67cb86aaf9cad5f0f906a6d1cb6db1c7bd571b5cc4f66c46bde315104965fb0",
	},
	"bench/f0d4_t64_m3": {
		"ops":          "11d581b52882876267ae0c9c22c9be99139fcd9326b45c883780f835127909d9",
		"stageOps":     "b22e6ac67b36f0c1a0483f183943da91775ddbcea17323afd8023f048126eb09",
		"inputs":       "f703c464e5ff8a0ed473106031d1eda7aa881c1517f27ff2f124156239195ca4",
		"finals":       "fb27d4495c73197d4394ee0ce64c2007fa9d91d18dd44e4957b024f0bf8a3678",
		"finalsByTime": "04e3cbd9437c4bab9f7240e6f43ddba099561d5648d262573a9cfaa92fe0e8e0",
		"workload":     "c4f3b4c40f9dd99ebbc1729c195596baee4329fa445ca8f3a8bdbacaa91b4cc8",
	},
}
