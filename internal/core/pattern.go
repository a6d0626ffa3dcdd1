// Package core implements the paper's primary contribution: the MICCO
// multi-GPU scheduler. It classifies each incoming tensor pair into one of
// four local reuse patterns (Fig. 4), gates reuse-seeking placements by
// three reuse bounds (Table II), and assigns the pair via the heuristic of
// Algorithm 1 (candidate selection toggling data-centric, computation-
// centric policies) and Algorithm 2 (final choice, switching to the
// memory-eviction-sensitive policy under projected oversubscription).
package core

import (
	"micco/internal/gpusim"
	"micco/internal/sched"
)

// ReusePattern is the local reuse classification of a tensor pair against
// current GPU residency (paper Fig. 4).
type ReusePattern int

const (
	// TwoRepeatedSame: both tensors are resident on at least one common GPU.
	TwoRepeatedSame ReusePattern = iota
	// TwoRepeatedDiff: both tensors are resident, but on disjoint GPUs.
	TwoRepeatedDiff
	// OneRepeated: exactly one tensor of the pair is resident somewhere.
	OneRepeated
	// TwoNew: neither tensor is resident on any GPU.
	TwoNew
)

// String implements fmt.Stringer.
func (r ReusePattern) String() string {
	switch r {
	case TwoRepeatedSame:
		return "twoRepeatedSame"
	case TwoRepeatedDiff:
		return "twoRepeatedDiff"
	case OneRepeated:
		return "oneRepeated"
	case TwoNew:
		return "twoNew"
	default:
		return "unknown"
	}
}

// BoundIndex returns which of the three reuse bounds governs pairs of this
// pattern (Table II): bound 0 for twoRepeatedSame (mapping 1), bound 1 for
// twoRepeatedDiff/oneRepeated (mappings 2-3), bound 2 for twoNew
// (mappings 4-7).
func (r ReusePattern) BoundIndex() int {
	switch r {
	case TwoRepeatedSame:
		return 0
	case TwoRepeatedDiff, OneRepeated:
		return 1
	default:
		return 2
	}
}

// ClassifyMasks classifies a pair from its operands' holder sets. It
// delegates to sched.ClassifyMasks — the one shared Table-II implementation
// the execution engine also uses to label decision records — so the two
// layers cannot drift; the enumerations correspond value for value
// (asserted in this package's tests).
func ClassifyMasks(a, b gpusim.DevSet) ReusePattern {
	return ReusePattern(sched.ClassifyMasks(a, b))
}
