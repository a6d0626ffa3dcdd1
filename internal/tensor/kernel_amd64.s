//go:build amd64

#include "textflag.h"

// func rowKernelAVX2(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int)
//
// Register-blocked split-complex micro-kernel: for each tile of 8 output
// columns it holds the real and imaginary accumulators in four YMM
// registers across the whole k loop, folding the rank-1 update
// a[k]*b[k][j] with VMULPD/VADDPD/VSUBPD only. FMA is deliberately not
// used: fused multiply-adds round once instead of twice and would break
// bit-identity with the scalar kernel. Every column's accumulation chain
// is 0 + p_0 + p_1 + ... in ascending k, matching the scalar kernel
// exactly.
TEXT ·rowKernelAVX2(SB), NOSPLIT, $0-56
	MOVQ cRe+0(FP), DI
	MOVQ cIm+8(FP), SI
	MOVQ aRe+16(FP), R8
	MOVQ aIm+24(FP), R9
	MOVQ bRe+32(FP), R10
	MOVQ bIm+40(FP), R11
	MOVQ n+48(FP), CX

	XORQ R12, R12            // R12 = jt, current column-tile start

tile:
	LEAQ 8(R12), AX
	CMPQ AX, CX
	JGT  done                // stop when jt+8 > n; scalar tail finishes

	VXORPD Y0, Y0, Y0        // cRe[jt:jt+4]
	VXORPD Y1, Y1, Y1        // cRe[jt+4:jt+8]
	VXORPD Y2, Y2, Y2        // cIm[jt:jt+4]
	VXORPD Y3, Y3, Y3        // cIm[jt+4:jt+8]

	// aRe/aIm are walked with one scaled index (DX) rather than two
	// pointer cursors: R15 is reserved by the Go assembler under
	// -dynlink/-shared and must not be clobbered here.
	LEAQ (R10)(R12*8), R13   // &bRe[0*n + jt]
	LEAQ (R11)(R12*8), R14   // &bIm[0*n + jt]
	XORQ DX, DX              // k = 0

k:
	VBROADCASTSD (R8)(DX*8), Y4 // ar = aRe[k] in all lanes
	VBROADCASTSD (R9)(DX*8), Y5 // ai = aIm[k] in all lanes
	VMOVUPD (R13), Y6        // br0 = bRe[k*n+jt : +4]
	VMOVUPD 32(R13), Y7      // br1 = bRe[k*n+jt+4 : +8]
	VMOVUPD (R14), Y8        // bi0 = bIm[k*n+jt : +4]
	VMOVUPD 32(R14), Y9      // bi1 = bIm[k*n+jt+4 : +8]

	// cRe tile 0: Y0 += ar*br0 - ai*bi0
	VMULPD Y6, Y4, Y10
	VMULPD Y8, Y5, Y11
	VSUBPD Y11, Y10, Y10
	VADDPD Y10, Y0, Y0

	// cIm tile 0: Y2 += ar*bi0 + ai*br0
	VMULPD Y8, Y4, Y12
	VMULPD Y6, Y5, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y2, Y2

	// cRe tile 1: Y1 += ar*br1 - ai*bi1
	VMULPD Y7, Y4, Y10
	VMULPD Y9, Y5, Y11
	VSUBPD Y11, Y10, Y10
	VADDPD Y10, Y1, Y1

	// cIm tile 1: Y3 += ar*bi1 + ai*br1
	VMULPD Y9, Y4, Y12
	VMULPD Y7, Y5, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y3, Y3

	LEAQ (R13)(CX*8), R13    // next bRe row (stride n)
	LEAQ (R14)(CX*8), R14    // next bIm row
	INCQ DX
	CMPQ DX, CX
	JLT  k

	VMOVUPD Y0, (DI)(R12*8)  // store cRe[jt:jt+4]
	VMOVUPD Y2, (SI)(R12*8)  // store cIm[jt:jt+4]
	LEAQ 4(R12), AX
	VMOVUPD Y1, (DI)(AX*8)   // store cRe[jt+4:jt+8]
	VMOVUPD Y3, (SI)(AX*8)   // store cIm[jt+4:jt+8]

	ADDQ $8, R12
	JMP  tile

done:
	VZEROUPPER
	RET
