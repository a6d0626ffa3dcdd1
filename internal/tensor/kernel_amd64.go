//go:build amd64

package tensor

import "micco/internal/cpu"

// Hardware capability of each vector tier, probed once through
// internal/cpu. These are raw availability bits; the dispatch decision
// (including the MICCO_KERNEL cap) lives in dispatch.go.
var (
	hwAVX2   = cpu.X86.HasAVX2()
	hwAVX512 = cpu.X86.HasAVX512()
)

// rowKernelAVX2 computes output columns [0, n&^7) of one C row in split
// form: cRe[j] + i*cIm[j] = sum_k (aRe[k]+i*aIm[k]) * (bRe[k*n+j]+i*bIm[k*n+j]),
// accumulating k in ascending order per column tile held in YMM registers.
// It uses VMULPD/VADDPD/VSUBPD only (no FMA), so every lane rounds exactly
// like the scalar kernel. Columns >= n&^7 are left untouched for the
// scalar tail. This is the vector kernel on machines without AVX-512, and
// the row-remainder kernel on machines with it.
//
//go:noescape
func rowKernelAVX2(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int)

// blockKernelAVX512 computes output columns [0, n&^15) of four
// consecutive C rows in split form, holding the 4x16 block in ZMM
// accumulators across the whole k loop. aRe/aIm point at the first of
// the four split A rows, cRe/cIm at the first of the four split C rows
// (the destination's own planes); every row has stride n. Like rowKernelAVX2 it uses VMULPD/VADDPD/VSUBPD only, so
// each element's chain is the scalar kernel's. Requires n >= 16; columns
// >= n&^15 are left untouched for the scalar tail.
//
//go:noescape
func blockKernelAVX512(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int)
