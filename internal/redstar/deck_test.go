package redstar

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"micco/internal/tensor"
)

const rhoDeck = `{
  "name": "rho2pt",
  "constructions": [
    {"name": "rho", "ops": [{"name": "rho", "quarks": [
      {"flavor": "u"}, {"flavor": "d", "bar": true}]}]}
  ],
  "momenta": 2, "timeSlices": 3, "tensorDim": 16, "batch": 1
}`

// writeDeck writes c in the JSON deck format LoadDeck reads, so tests can
// check that a correlator survives the trip through its deck form.
func writeDeck(buf *bytes.Buffer, c *Correlator) error {
	d := Deck{Name: c.Name, Momenta: c.Momenta, TimeSlices: c.TimeSlices,
		TensorDim: c.TensorDim, Batch: c.Batch, Rank: c.Rank}
	for _, con := range c.Constructions {
		dc := DeckConstruction{Name: con.Name}
		for _, op := range con.Ops {
			o := DeckOp{Name: op.Name}
			for _, q := range op.Quarks {
				o.Quarks = append(o.Quarks, DeckQuark{Flavor: q.Flavor, Bar: q.Bar})
			}
			dc.Ops = append(dc.Ops, o)
		}
		d.Constructions = append(d.Constructions, dc)
	}
	return json.NewEncoder(buf).Encode(d)
}

func TestLoadDeck(t *testing.T) {
	c, err := LoadDeck(strings.NewReader(rhoDeck))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "rho2pt" || c.TimeSlices != 3 || c.TensorDim != 16 {
		t.Errorf("deck fields wrong: %+v", c)
	}
	if c.blockRank() != tensor.RankMeson {
		t.Error("default rank should be meson")
	}
	b, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGraphs == 0 {
		t.Error("deck correlator produced no graphs")
	}
}

func TestLoadDeckErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"constructions": [], "momenta": 1, "timeSlices": 1, "tensorDim": 4, "batch": 1}`, // no name
		`{"name": "x", "unknown_field": 1}`,
		`{"name": "x", "constructions": [{"name": "c", "ops": [{"name": "o", "quarks": [{"flavor": "u"}]}]}],
		  "momenta": 1, "timeSlices": 1, "tensorDim": 4, "batch": 1, "rank": 7}`,
		// Flavor imbalance across two different constructions.
		`{"name": "x", "constructions": [
		   {"name": "a", "ops": [{"name": "a", "quarks": [{"flavor": "u"}]}]},
		   {"name": "b", "ops": [{"name": "b", "quarks": [{"flavor": "d"}]}]}],
		  "momenta": 1, "timeSlices": 1, "tensorDim": 4, "batch": 1}`,
		// One deck per input: a second value or stray text after it.
		rhoDeck + ` {"garbage":1} trailing`,
		rhoDeck + rhoDeck,
		rhoDeck + "\n]",
	}
	for i, deck := range cases {
		if _, err := LoadDeck(strings.NewReader(deck)); err == nil {
			t.Errorf("deck %d should fail", i)
		}
	}
	_, err := LoadDeck(strings.NewReader(rhoDeck + ` {"garbage":1} trailing`))
	if err == nil || !strings.HasPrefix(err.Error(), "redstar: parse deck:") {
		t.Errorf("trailing data: error %v, want a redstar: parse deck: error", err)
	}
	if _, err := LoadDeck(strings.NewReader(rhoDeck + " \n\t\r\n")); err != nil {
		t.Errorf("trailing whitespace must stay legal: %v", err)
	}
}

func TestDeckRoundTripForBundled(t *testing.T) {
	for _, c := range Bundled() {
		var buf bytes.Buffer
		if err := writeDeck(&buf, c); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		back, err := LoadDeck(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if back.Name != c.Name || len(back.Constructions) != len(c.Constructions) ||
			back.Momenta != c.Momenta || back.TimeSlices != c.TimeSlices ||
			back.TensorDim != c.TensorDim || back.Batch != c.Batch {
			t.Errorf("%s: round-trip changed the correlator", c.Name)
		}
		for i := range c.Constructions {
			if len(back.Constructions[i].Ops) != len(c.Constructions[i].Ops) {
				t.Errorf("%s: construction %d ops changed", c.Name, i)
			}
		}
	}
}

func TestDeckBaryonRoundTrip(t *testing.T) {
	c := nucleonCorrelator()
	var buf bytes.Buffer
	if err := writeDeck(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDeck(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.blockRank() != tensor.RankBaryon {
		t.Error("baryon rank lost in round-trip")
	}
	if _, err := back.BuildPlan(); err != nil {
		t.Fatal(err)
	}
}
