//go:build amd64

#include "textflag.h"

// Index vectors for VPERMT2PD two-table permutes over 16 float64 lanes:
// table 1 is the destination register, table 2 the source operand;
// indices 0-7 select from table 1, 8-15 from table 2.

// Even lanes of an interleaved pair: re0..re7 of 8 complex128.
DATA idxEven<>+0(SB)/8, $0
DATA idxEven<>+8(SB)/8, $2
DATA idxEven<>+16(SB)/8, $4
DATA idxEven<>+24(SB)/8, $6
DATA idxEven<>+32(SB)/8, $8
DATA idxEven<>+40(SB)/8, $10
DATA idxEven<>+48(SB)/8, $12
DATA idxEven<>+56(SB)/8, $14
GLOBL idxEven<>(SB), RODATA, $64

// Odd lanes of an interleaved pair: im0..im7 of 8 complex128.
DATA idxOdd<>+0(SB)/8, $1
DATA idxOdd<>+8(SB)/8, $3
DATA idxOdd<>+16(SB)/8, $5
DATA idxOdd<>+24(SB)/8, $7
DATA idxOdd<>+32(SB)/8, $9
DATA idxOdd<>+40(SB)/8, $11
DATA idxOdd<>+48(SB)/8, $13
DATA idxOdd<>+56(SB)/8, $15
GLOBL idxOdd<>(SB), RODATA, $64

// Low half of a re/im zip: re0,im0,...,re3,im3.
DATA idxZipLo<>+0(SB)/8, $0
DATA idxZipLo<>+8(SB)/8, $8
DATA idxZipLo<>+16(SB)/8, $1
DATA idxZipLo<>+24(SB)/8, $9
DATA idxZipLo<>+32(SB)/8, $2
DATA idxZipLo<>+40(SB)/8, $10
DATA idxZipLo<>+48(SB)/8, $3
DATA idxZipLo<>+56(SB)/8, $11
GLOBL idxZipLo<>(SB), RODATA, $64

// High half of a re/im zip: re4,im4,...,re7,im7.
DATA idxZipHi<>+0(SB)/8, $4
DATA idxZipHi<>+8(SB)/8, $12
DATA idxZipHi<>+16(SB)/8, $5
DATA idxZipHi<>+24(SB)/8, $13
DATA idxZipHi<>+32(SB)/8, $6
DATA idxZipHi<>+40(SB)/8, $14
DATA idxZipHi<>+48(SB)/8, $7
DATA idxZipHi<>+56(SB)/8, $15
GLOBL idxZipHi<>(SB), RODATA, $64

// func packSplitAVX512(re, im *float64, src *complex128, n int)
//
// Deinterleaves n complex128 values (n a multiple of 8; the Go wrapper
// handles the tail) into separate re/im panels: two 64-byte loads cover
// 8 complex values, two VPERMT2PD gathers split the even (real) and odd
// (imaginary) lanes. Pure data movement — bytes are identical to the
// scalar loop's.
TEXT ·packSplitAVX512(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ src+16(FP), R8
	MOVQ n+24(FP), CX

	VMOVUPD idxEven<>(SB), Z8
	VMOVUPD idxOdd<>(SB), Z9

	XORQ DX, DX              // i = 0, in elements

loop:
	LEAQ 8(DX), AX
	CMPQ AX, CX
	JGT  done

	VMOVUPD (R8), Z0         // src[i : i+4]   as 8 float64
	VMOVUPD 64(R8), Z1       // src[i+4 : i+8]
	VMOVAPD Z0, Z2
	VPERMT2PD Z1, Z8, Z2     // even lanes of {Z2,Z1} = re[i:i+8]
	VPERMT2PD Z1, Z9, Z0     // odd lanes of {Z0,Z1} = im[i:i+8]
	VMOVUPD Z2, (DI)(DX*8)
	VMOVUPD Z0, (SI)(DX*8)

	ADDQ $128, R8            // 8 complex128 = 128 bytes
	ADDQ $8, DX
	JMP  loop

done:
	VZEROUPPER
	RET

// func unpackMergeAVX512(dst *complex128, re, im *float64, n int)
//
// The inverse of packSplitAVX512: zips n re/im float64 pairs (n a
// multiple of 8) back into interleaved complex128 values with two
// VPERMT2PD scatters per 8 elements. Pure data movement.
TEXT ·unpackMergeAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ re+8(FP), R8
	MOVQ im+16(FP), R9
	MOVQ n+24(FP), CX

	VMOVUPD idxZipLo<>(SB), Z8
	VMOVUPD idxZipHi<>(SB), Z9

	XORQ DX, DX              // i = 0, in elements

loop:
	LEAQ 8(DX), AX
	CMPQ AX, CX
	JGT  done

	VMOVUPD (R8)(DX*8), Z0   // re[i:i+8]
	VMOVUPD (R9)(DX*8), Z1   // im[i:i+8]
	VMOVAPD Z0, Z2
	VPERMT2PD Z1, Z8, Z2     // re0,im0,...,re3,im3
	VPERMT2PD Z1, Z9, Z0     // re4,im4,...,re7,im7
	VMOVUPD Z2, (DI)
	VMOVUPD Z0, 64(DI)

	ADDQ $128, DI            // 8 complex128 = 128 bytes
	ADDQ $8, DX
	JMP  loop

done:
	VZEROUPPER
	RET
