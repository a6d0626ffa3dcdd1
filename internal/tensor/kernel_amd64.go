//go:build amd64

package tensor

import "micco/internal/cpu"

// Hardware capability of each vector tier, probed once through
// internal/cpu. These are raw availability bits; the dispatch decision
// (including the MICCO_KERNEL cap) lives in dispatch.go.
var (
	hwAVX2   = cpu.X86.HasAVX2()
	hwFMA    = cpu.X86.HasFMA()
	hwAVX512 = cpu.X86.HasAVX512()
)

// rowKernelAVX2 computes output columns [0, n&^7) of one C row in split
// form: cRe[j] + i*cIm[j] = sum_k (aRe[k]+i*aIm[k]) * (bRe[k*n+j]+i*bIm[k*n+j]),
// accumulating k in ascending order per column tile held in YMM registers.
// It uses VMULPD/VADDPD/VSUBPD only (no FMA), so every lane rounds exactly
// like the scalar kernel. Columns >= n&^7 are left untouched for the
// scalar tail. This is the Exact-tier vector kernel on machines without
// AVX-512, and the row-remainder kernel on machines with it.
//
//go:noescape
func rowKernelAVX2(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int)

// blockKernelAVX512 computes output columns [0, n&^15) of four
// consecutive C rows in split form, holding the 4x16 block in ZMM
// accumulators across the whole k loop. aRe/aIm point at the first of
// the four split A rows, cRe/cIm at a four-row scratch block; every row
// has stride n. Like rowKernelAVX2 it uses VMULPD/VADDPD/VSUBPD only, so
// each element's chain is the scalar kernel's. Requires n >= 16; columns
// >= n&^15 are left untouched for the scalar tail.
//
//go:noescape
func blockKernelAVX512(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int)

// rowKernelFMA accumulates kn rank-1 updates into output columns
// [0, n&^7) of one C row using FMA3: per k, cRe = fnma(ai, bi,
// fma(ar, br, cRe)) and cIm = fma(ai, br, fma(ar, bi, cIm)). Each fused
// multiply-add rounds once instead of twice, so results differ from the
// Exact tier within the documented ULP bound (DESIGN.md §12). Unlike the
// exact kernel it accumulates into the C tiles: with acc=0 (the first k
// panel) the accumulators start at zero and C's prior contents are
// ignored; with acc=1 the C tiles are loaded and accumulated into. The
// caller may therefore split the k range into cache-sized panels without
// changing any element's accumulation chain. bRe/bIm point at the panel's
// first k row; n is the B row stride.
//
//go:noescape
func rowKernelFMA(cRe, cIm, aRe, aIm, bRe, bIm *float64, n, kn, acc int)

// rowKernelAVX512 is rowKernelFMA on ZMM registers: 32 output columns per
// main tile plus a 16-column cleanup tile, covering [0, n&^15), same fused
// accumulation chain and same load/accumulate/store contract.
//
//go:noescape
func rowKernelAVX512(cRe, cIm, aRe, aIm, bRe, bIm *float64, n, kn, acc int)

// packSplitAVX512 deinterleaves n complex128 values (n a multiple of 8)
// into separate re/im panels with ZMM permutes. Pure data movement, byte
// for byte the scalar loop's result, so both kernel modes may use it.
//
//go:noescape
func packSplitAVX512(re, im *float64, src *complex128, n int)

// unpackMergeAVX512 zips n re/im pairs (n a multiple of 8) back into
// interleaved complex128 values. Pure data movement.
//
//go:noescape
func unpackMergeAVX512(dst *complex128, re, im *float64, n int)
