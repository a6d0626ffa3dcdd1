package mlearn

import (
	"encoding/json"
	"fmt"
)

// Serialization uses a tagged envelope so a Multi can round-trip models of
// any family. Trees serialize as their recursive nodes.

type treeDoc struct {
	Cfg  TreeConfig `json:"cfg"`
	Root *node      `json:"root"`
}

// MarshalJSON implements json.Marshaler.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(treeDoc{Cfg: t.Cfg, Root: t.root})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Tree) UnmarshalJSON(b []byte) error {
	var doc treeDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	*t = *NewTree(doc.Cfg)
	t.root = doc.Root
	return nil
}

type forestDoc struct {
	Cfg   ForestConfig `json:"cfg"`
	Trees []*Tree      `json:"trees"`
}

// MarshalJSON implements json.Marshaler.
func (f *Forest) MarshalJSON() ([]byte, error) {
	return json.Marshal(forestDoc{Cfg: f.Cfg, Trees: f.trees})
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Forest) UnmarshalJSON(b []byte) error {
	var doc forestDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	f.Cfg = doc.Cfg
	f.trees = doc.Trees
	return nil
}

type boostingDoc struct {
	Cfg   BoostingConfig `json:"cfg"`
	Base  float64        `json:"base"`
	Trees []*Tree        `json:"trees"`
}

// MarshalJSON implements json.Marshaler.
func (bo *Boosting) MarshalJSON() ([]byte, error) {
	return json.Marshal(boostingDoc{Cfg: bo.Cfg, Base: bo.base, Trees: bo.trees})
}

// UnmarshalJSON implements json.Unmarshaler.
func (bo *Boosting) UnmarshalJSON(b []byte) error {
	var doc boostingDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	bo.Cfg = doc.Cfg
	bo.base = doc.Base
	bo.trees = doc.Trees
	return nil
}

type linearDoc struct {
	Ridge   float64   `json:"ridge"`
	Weights []float64 `json:"weights"`
}

// MarshalJSON implements json.Marshaler.
func (l *Linear) MarshalJSON() ([]byte, error) {
	return json.Marshal(linearDoc{Ridge: l.Ridge, Weights: l.weights})
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *Linear) UnmarshalJSON(b []byte) error {
	var doc linearDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	l.Ridge = doc.Ridge
	l.weights = doc.Weights
	return nil
}

// regressor type tags for the envelope.
const (
	tagTree     = "tree"
	tagForest   = "forest"
	tagBoosting = "boosting"
	tagLinear   = "linear"
)

type envelope struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// MarshalRegressor serializes any built-in Regressor with a type tag.
func MarshalRegressor(r Regressor) (json.RawMessage, error) {
	var tag string
	switch r.(type) {
	case *Tree:
		tag = tagTree
	case *Forest:
		tag = tagForest
	case *Boosting:
		tag = tagBoosting
	case *Linear:
		tag = tagLinear
	default:
		return nil, fmt.Errorf("mlearn: cannot serialize %T", r)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Type: tag, Data: data})
}

// UnmarshalRegressor reverses MarshalRegressor.
func UnmarshalRegressor(raw json.RawMessage) (Regressor, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	var r Regressor
	switch env.Type {
	case tagTree:
		r = &Tree{}
	case tagForest:
		r = &Forest{}
	case tagBoosting:
		r = &Boosting{}
	case tagLinear:
		r = &Linear{}
	default:
		return nil, fmt.Errorf("mlearn: unknown regressor type %q", env.Type)
	}
	if err := json.Unmarshal(env.Data, r); err != nil {
		return nil, err
	}
	return r, nil
}

type multiDoc struct {
	Models []json.RawMessage `json:"models"`
}

// MarshalJSON implements json.Marshaler.
func (m *Multi) MarshalJSON() ([]byte, error) {
	doc := multiDoc{}
	for _, r := range m.models {
		raw, err := MarshalRegressor(r)
		if err != nil {
			return nil, err
		}
		doc.Models = append(doc.Models, raw)
	}
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler. The factory is not restored;
// a loaded Multi can Predict and score but not re-Fit.
func (m *Multi) UnmarshalJSON(b []byte) error {
	var doc multiDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	m.models = m.models[:0]
	for _, raw := range doc.Models {
		r, err := UnmarshalRegressor(raw)
		if err != nil {
			return err
		}
		m.models = append(m.models, r)
	}
	return nil
}
