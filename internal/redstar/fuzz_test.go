package redstar

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseDeck throws arbitrary bytes at the deck parser. Invariants: the
// parser never panics, an accepted deck always validates, and an accepted
// deck survives a write/load round trip unchanged (the serialized form is
// a faithful, reparseable description of the correlator).
func FuzzParseDeck(f *testing.F) {
	// Seed corpus: the bundled correlators' own deck forms plus hand-written
	// valid, truncated and type-confused documents.
	for _, c := range []*Correlator{A1RhoPi(), F0D2(), F0D4()} {
		var buf bytes.Buffer
		if err := writeDeck(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(`{"name":"rho2pt","constructions":[{"name":"rho","ops":[{"name":"rho","quarks":[{"flavor":"u"},{"flavor":"d","bar":true}]}]}],"momenta":3,"timeSlices":16,"tensorDim":128,"batch":8}`)
	f.Add(`{"name":"baryon","rank":3,"momenta":1,"timeSlices":2,"tensorDim":8,"batch":1,"constructions":[]}`)
	f.Add(`{"name":""}`)
	f.Add(`{"name":"x","rank":7}`)
	f.Add(`{"name":"x","momenta":-1}`)
	f.Add(`{"name":"huge","constructions":[{"name":"rho","ops":[{"name":"rho","quarks":[{"flavor":"u"},{"flavor":"d","bar":true}]}]}],"momenta":1,"timeSlices":1,"tensorDim":100000000,"batch":1000000}`)
	f.Add(`{"unknown":"field"}`)
	f.Add(`{"name":"x","constructions":[{"ops":[{"quarks":[{}]}]}]`)
	f.Add(`[]`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`{"name":"rho2pt","constructions":[{"name":"rho","ops":[{"name":"rho","quarks":[{"flavor":"u"},{"flavor":"d","bar":true}]}]}],"momenta":1,"timeSlices":1,"tensorDim":4,"batch":1} {"garbage":1} trailing`)

	f.Fuzz(func(t *testing.T, deck string) {
		c, err := LoadDeck(strings.NewReader(deck))
		if err != nil {
			if c != nil {
				t.Fatalf("error %v returned alongside a correlator", err)
			}
			return
		}
		if c == nil {
			t.Fatal("nil correlator without error")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted deck fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := writeDeck(&buf, c); err != nil {
			t.Fatalf("accepted deck does not serialize: %v", err)
		}
		c2, err := LoadDeck(&buf)
		if err != nil {
			t.Fatalf("serialized deck does not reparse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip changed the correlator:\n%+v\n%+v", c, c2)
		}
	})
}
