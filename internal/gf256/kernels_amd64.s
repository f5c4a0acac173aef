//go:build amd64 && !purego

#include "textflag.h"

// GF(2^8) vector kernel: SSSE3.
//
// The kernel carries the two 16-entry nibble product tables of one
// coefficient c in X0 (low) and X1 (high). For a 16-byte chunk S,
// PSHUFB performs the 16 parallel table lookups, so
//
//	c*S = PSHUFB(lo, S & 0x0f) XOR PSHUFB(hi, (S >> 4) & 0x0f)
//
// — the same split-table identity the portable kernel applies one byte
// at a time. Callers guarantee n is a positive multiple of 16, with any
// sub-16 tail handled in Go.

// func cpuHasSSSE3() bool
//
// CPUID.1:ECX[9].
TEXT ·cpuHasSSSE3(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	SHRL $9, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func mulAddVecSSSE3(lo, hi *[16]byte, dst, src *byte, n int)
TEXT ·mulAddVecSSSE3(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), CX
	MOVOU (AX), X0
	MOVOU (BX), X1
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X2
	PUNPCKLQDQ X2, X2

	CMPQ CX, $32
	JL   addtail16

addloop32:
	MOVOU (SI), X4
	MOVOU 16(SI), X8
	MOVO  X4, X5
	MOVO  X8, X9
	PSRLQ $4, X5
	PSRLQ $4, X9
	PAND  X2, X4
	PAND  X2, X5
	PAND  X2, X8
	PAND  X2, X9
	MOVO  X0, X6
	MOVO  X1, X7
	MOVO  X0, X10
	MOVO  X1, X11
	PSHUFB X4, X6
	PSHUFB X5, X7
	PSHUFB X8, X10
	PSHUFB X9, X11
	PXOR  X7, X6
	PXOR  X11, X10
	MOVOU (DI), X12
	MOVOU 16(DI), X13
	PXOR  X12, X6
	PXOR  X13, X10
	MOVOU X6, (DI)
	MOVOU X10, 16(DI)
	ADDQ  $32, SI
	ADDQ  $32, DI
	SUBQ  $32, CX
	CMPQ  CX, $32
	JGE   addloop32

addtail16:
	CMPQ CX, $16
	JL   adddone
	MOVOU (SI), X4
	MOVO  X4, X5
	PSRLQ $4, X5
	PAND  X2, X4
	PAND  X2, X5
	MOVO  X0, X6
	MOVO  X1, X7
	PSHUFB X4, X6
	PSHUFB X5, X7
	PXOR  X7, X6
	MOVOU (DI), X8
	PXOR  X8, X6
	MOVOU X6, (DI)

adddone:
	RET
