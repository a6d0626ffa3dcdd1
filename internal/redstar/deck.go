package redstar

import (
	"encoding/json"
	"fmt"
	"io"

	"micco/internal/tensor"
	"micco/internal/wick"
)

// Deck is the JSON description of a correlator, the reproduction's analog
// of Redstar's XML input decks. Example:
//
//	{
//	  "name": "rho2pt",
//	  "constructions": [
//	    {"name": "rho", "ops": [{"name": "rho", "quarks": [
//	      {"flavor": "u"}, {"flavor": "d", "bar": true}]}]}
//	  ],
//	  "momenta": 3, "timeSlices": 16, "tensorDim": 128, "batch": 8
//	}
//
// The "rank" field is optional: 2 (default, meson systems) or 3 (baryon
// systems with rank-3 hadron blocks).
type Deck struct {
	Name          string             `json:"name"`
	Constructions []DeckConstruction `json:"constructions"`
	Momenta       int                `json:"momenta"`
	TimeSlices    int                `json:"timeSlices"`
	TensorDim     int                `json:"tensorDim"`
	Batch         int                `json:"batch"`
	Rank          int                `json:"rank,omitempty"`
}

// DeckConstruction is one operator construction in a deck.
type DeckConstruction struct {
	Name string   `json:"name"`
	Ops  []DeckOp `json:"ops"`
}

// DeckOp is one interpolating operator in a deck.
type DeckOp struct {
	Name   string      `json:"name"`
	Quarks []DeckQuark `json:"quarks"`
}

// DeckQuark is one quark field in a deck operator.
type DeckQuark struct {
	Flavor string `json:"flavor"`
	Bar    bool   `json:"bar,omitempty"`
}

// LoadDeck parses a JSON deck and converts it into a validated Correlator.
// The input must be exactly one deck: anything but whitespace after it is
// an error.
func LoadDeck(r io.Reader) (*Correlator, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Deck
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("redstar: parse deck: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("redstar: parse deck: unexpected data after the deck")
	}
	return d.Correlator()
}

// Correlator converts the deck into a validated Correlator.
func (d Deck) Correlator() (*Correlator, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("redstar: deck needs a name")
	}
	c := &Correlator{
		Name:       d.Name,
		Momenta:    d.Momenta,
		TimeSlices: d.TimeSlices,
		TensorDim:  d.TensorDim,
		Batch:      d.Batch,
		Rank:       d.Rank,
	}
	if c.Rank != 0 && c.Rank != tensor.RankMeson && c.Rank != tensor.RankBaryon {
		return nil, fmt.Errorf("redstar: deck %s: rank must be 2 or 3, got %d", d.Name, d.Rank)
	}
	for _, dc := range d.Constructions {
		con := Construction{Name: dc.Name}
		for _, op := range dc.Ops {
			o := wick.Operator{Name: op.Name}
			for _, q := range op.Quarks {
				o.Quarks = append(o.Quarks, wick.Quark{Flavor: q.Flavor, Bar: q.Bar})
			}
			con.Ops = append(con.Ops, o)
		}
		c.Constructions = append(c.Constructions, con)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
