//go:build amd64

#include "textflag.h"

// ROW folds one k-step of one block row into its four accumulators:
// cr0/cr1 hold cRe, ci0/ci1 hold cIm of the row's 16 columns; are/aim
// address the row's aRe[k] and aIm[k]. Z16..Z19 hold the k-step's B
// strip (br0, br1, bi0, bi1). With ar, ai broadcast into Z20, Z21 the
// temporaries are Z22 = ar*br0, Z23 = ai*bi0, Z24 = ar*bi0, Z25 = ai*br0
// (Z26..Z29 likewise for the second vector); then cRe += Z22 - Z23 and
// cIm += Z24 + Z25. Operand order matches rowKernelAVX2 instruction for
// instruction, so even NaN payloads propagate alike.
#define ROW(are, aim, cr0, cr1, ci0, ci1) \
	VBROADCASTSD are, Z20; \
	VBROADCASTSD aim, Z21; \
	VMULPD Z16, Z20, Z22; \
	VMULPD Z18, Z21, Z23; \
	VMULPD Z18, Z20, Z24; \
	VMULPD Z16, Z21, Z25; \
	VMULPD Z17, Z20, Z26; \
	VMULPD Z19, Z21, Z27; \
	VMULPD Z19, Z20, Z28; \
	VMULPD Z17, Z21, Z29; \
	VSUBPD Z23, Z22, Z22; \
	VADDPD Z25, Z24, Z24; \
	VSUBPD Z27, Z26, Z26; \
	VADDPD Z29, Z28, Z28; \
	VADDPD Z22, cr0, cr0; \
	VADDPD Z24, ci0, ci0; \
	VADDPD Z26, cr1, cr1; \
	VADDPD Z28, ci1, ci1

// func blockKernelAVX512(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int)
//
// The register-blocked micro-kernel: a 4-row x 16-column
// block of C lives in 16 ZMM accumulators (Z0-Z7 real, Z8-Z15 imaginary,
// two per row each) across the whole k loop. Per k-step the 16-column B
// strip is loaded once (4 ZMM loads) and serves all four rows; the A
// scalars are broadcast straight from the split A rows. 12 loads feed 64
// FP instructions, against 6 for 16 in the 1x8 row kernel, and the B
// panel is streamed from L2 once per four rows instead of once per row.
//
// VMULPD/VSUBPD/VADDPD only — never FMA: every output element's chain is
// 0 + p_0 + p_1 + ... in ascending k with p_k = ar*br - ai*bi (resp.
// ar*bi + ai*br), each operation rounded on its own, exactly as in
// rowKernelScalar. Blocking changes which elements share an instruction,
// never an element's chain.
//
// aRe/aIm point at the block's first split A row, cRe/cIm at its first
// split C row in the destination's planes; all rows have stride n. Columns >= n&^15 are
// left untouched for the scalar tail. Requires n >= 16.
TEXT ·blockKernelAVX512(SB), NOSPLIT, $0-56
	MOVQ bRe+32(FP), R10
	MOVQ bIm+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ CX, BX
	SHLQ $3, BX              // BX = row stride in bytes
	LEAQ (BX)(BX*2), R8      // R8 = 3 * stride

	XORQ R12, R12            // R12 = jt, current column-tile start

tile:
	LEAQ 16(R12), AX
	CMPQ AX, CX
	JGT  done                // stop when jt+16 > n; scalar tail finishes

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	MOVQ aRe+16(FP), AX      // &aRe[row0*n + k], k = 0
	MOVQ aIm+24(FP), R9      // &aIm[row0*n + k]
	LEAQ (R10)(R12*8), R13   // &bRe[0*n + jt]
	LEAQ (R11)(R12*8), R14   // &bIm[0*n + jt]
	MOVQ CX, DX              // k steps left

k:
	VMOVUPD (R13), Z16       // br0 = bRe[k*n+jt : +8]
	VMOVUPD 64(R13), Z17     // br1 = bRe[k*n+jt+8 : +16]
	VMOVUPD (R14), Z18       // bi0
	VMOVUPD 64(R14), Z19     // bi1

	ROW((AX), (R9), Z0, Z1, Z8, Z9)
	ROW((AX)(BX*1), (R9)(BX*1), Z2, Z3, Z10, Z11)
	ROW((AX)(BX*2), (R9)(BX*2), Z4, Z5, Z12, Z13)
	ROW((AX)(R8*1), (R9)(R8*1), Z6, Z7, Z14, Z15)

	ADDQ $8, AX              // next k in the A rows
	ADDQ $8, R9
	ADDQ BX, R13             // next B row (stride n)
	ADDQ BX, R14
	DECQ DX
	JNZ  k

	MOVQ cRe+0(FP), DI
	MOVQ cIm+8(FP), SI
	LEAQ (DI)(R12*8), DI     // &cRe[0*n + jt]
	LEAQ (SI)(R12*8), SI
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z8, (SI)
	VMOVUPD Z9, 64(SI)
	VMOVUPD Z2, (DI)(BX*1)
	VMOVUPD Z3, 64(DI)(BX*1)
	VMOVUPD Z10, (SI)(BX*1)
	VMOVUPD Z11, 64(SI)(BX*1)
	VMOVUPD Z4, (DI)(BX*2)
	VMOVUPD Z5, 64(DI)(BX*2)
	VMOVUPD Z12, (SI)(BX*2)
	VMOVUPD Z13, 64(SI)(BX*2)
	VMOVUPD Z6, (DI)(R8*1)
	VMOVUPD Z7, 64(DI)(R8*1)
	VMOVUPD Z14, (SI)(R8*1)
	VMOVUPD Z15, 64(SI)(R8*1)

	ADDQ $16, R12
	JMP  tile

done:
	VZEROUPPER
	RET
