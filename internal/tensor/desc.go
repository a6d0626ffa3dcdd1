// Package tensor provides the dense complex tensor substrate used by the
// MICCO reproduction: batched rank-2 (meson) and rank-3 (baryon) hadron-node
// tensors, their contraction kernels, and exact FLOP/byte accounting.
//
// Two views of a tensor exist. A Desc is cheap metadata (identity and shape)
// that the schedulers and the GPU simulator operate on; a Tensor carries a
// Desc plus actual complex128 data for numeric-mode execution and tests.
package tensor

import (
	"errors"
	"fmt"
)

// ComplexBytes is the storage size of one complex128 element.
const ComplexBytes = 16

// Rank values supported by hadron-node tensors.
const (
	RankMeson  = 2 // batched matrices
	RankBaryon = 3 // batched rank-3 tensors
)

// Desc describes a tensor's identity and shape without holding data.
// All batched hadron-node tensors in this system are "square": every mode
// has length Dim, and Batch independent instances are stacked.
type Desc struct {
	ID    uint64 // globally unique tensor identity (0 is a valid ID)
	Rank  int    // RankMeson or RankBaryon
	Dim   int    // length of each tensor mode
	Batch int    // number of stacked instances
}

// Valid reports whether the description is well formed.
func (d Desc) Valid() bool {
	return (d.Rank == RankMeson || d.Rank == RankBaryon) && d.Dim > 0 && d.Batch > 0
}

// Elems returns the number of complex elements the tensor holds.
func (d Desc) Elems() int64 {
	n := int64(d.Batch)
	for i := 0; i < d.Rank; i++ {
		n *= int64(d.Dim)
	}
	return n
}

// Bytes returns the storage footprint of the tensor in bytes.
func (d Desc) Bytes() int64 { return d.Elems() * ComplexBytes }

// String implements fmt.Stringer.
func (d Desc) String() string {
	return fmt.Sprintf("t%d[rank=%d dim=%d batch=%d]", d.ID, d.Rank, d.Dim, d.Batch)
}

// ContractFLOPs returns the floating-point operation count of contracting a
// with b, counting a complex multiply-add as 8 real FLOPs (the standard
// ZGEMM convention).
//
// Meson (rank 2):  per batch, a DxD by DxD matrix product = 8*D^3 FLOPs.
// Baryon (rank 3): per batch, C[i,j,k] = sum_l A[i,j,l]*B[i,l,k], i.e. D
// independent DxD matrix products = 8*D^4 FLOPs.
func ContractFLOPs(a, b Desc) (int64, error) {
	if err := checkContractible(a, b); err != nil {
		return 0, err
	}
	d := int64(a.Dim)
	per := 8 * d * d * d
	if a.Rank == RankBaryon {
		per *= d
	}
	return per * int64(a.Batch), nil
}

// ContractOut returns the description of the output of contracting a with b,
// assigning it the provided identity. Hadron contraction preserves rank,
// dimension and batch.
func ContractOut(a, b Desc, id uint64) (Desc, error) {
	if err := checkContractible(a, b); err != nil {
		return Desc{}, err
	}
	return Desc{ID: id, Rank: a.Rank, Dim: a.Dim, Batch: a.Batch}, nil
}

// ErrInvalidOperand marks a contraction whose destination or operands are
// nil, malformed or of mismatched shapes.
var ErrInvalidOperand = errors.New("invalid operand")

func checkContractible(a, b Desc) error {
	if !a.Valid() {
		return fmt.Errorf("tensor: %w %v", ErrInvalidOperand, a)
	}
	if !b.Valid() {
		return fmt.Errorf("tensor: %w %v", ErrInvalidOperand, b)
	}
	if a.Rank != b.Rank || a.Dim != b.Dim || a.Batch != b.Batch {
		return fmt.Errorf("tensor: %w: shape mismatch %v vs %v", ErrInvalidOperand, a, b)
	}
	return nil
}
