//go:build amd64 && !purego

#include "textflag.h"

// AES-128 on one block, straight from the raw 16-byte key (AES-NI).
//
// Round key i+1 is derived from round key i in X0 and is used where it
// is made: no key schedule is ever written to memory. FIPS-197's
// KeyExpansion step is SubWord(RotWord(w3)) XOR Rcon, XORed into the
// prefix XOR of the key's four words. RotWord, broadcast to all four
// words, is one PSHUFB (mask in X14). With all four columns equal,
// AESENCLAST's ShiftRows is the identity, so AESENCLAST against a round
// key of Rcon in every word is SubWord then the Rcon XOR, at the
// latency of one AES round: AESKEYGENASSIST, which Go's crypto/aes uses,
// is microcoded and set a block's floor at ~70 ns. The prefix XOR is the
// shuffle-and-XOR of crypto/aes's _expand_key_128; X4's low word must be
// zero before the first step, and the step keeps it zero. Only X0-X14
// are used: X15 is the Go ABI's zero register.

// RotWord of a round key's last word, in every word: bytes 13, 14, 15
// and 12 four times (PSHUFB indices).
DATA aesRotWord<>+0(SB)/4, $0x0c0f0e0d
DATA aesRotWord<>+4(SB)/4, $0x0c0f0e0d
DATA aesRotWord<>+8(SB)/4, $0x0c0f0e0d
DATA aesRotWord<>+12(SB)/4, $0x0c0f0e0d
GLOBL aesRotWord<>(SB), RODATA|NOPTR, $16

// func cpuHasAES() bool
//
// CPUID.1:ECX[25].
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND(rcon) turns the round key in X0 into the next one, whose
// round constant is rcon. Clobbers CX, X1, X3 and X4's upper words.
#define EXPAND(rcon) \
	MOVL       $rcon, CX;     \
	MOVL       CX, X3;        \
	PSHUFD     $0, X3, X3;    \
	MOVO       X0, X1;        \
	PSHUFB     X14, X1;       \
	AESENCLAST X3, X1;        \
	SHUFPS     $0x10, X0, X4; \
	PXOR       X4, X0;        \
	SHUFPS     $0x8c, X0, X4; \
	PXOR       X4, X0;        \
	PXOR       X1, X0

// func encryptBlockAESNI(key *Key, dst, src *[16]byte)
TEXT ·encryptBlockAESNI(SB), NOSPLIT, $0-24
	MOVQ   key+0(FP), AX
	MOVQ   dst+8(FP), DX
	MOVQ   src+16(FP), BX
	MOVUPS (AX), X0
	MOVUPS (BX), X2
	MOVOU  aesRotWord<>(SB), X14
	PXOR   X4, X4
	PXOR   X0, X2
	EXPAND(0x01)
	AESENC X0, X2
	EXPAND(0x02)
	AESENC X0, X2
	EXPAND(0x04)
	AESENC X0, X2
	EXPAND(0x08)
	AESENC X0, X2
	EXPAND(0x10)
	AESENC X0, X2
	EXPAND(0x20)
	AESENC X0, X2
	EXPAND(0x40)
	AESENC X0, X2
	EXPAND(0x80)
	AESENC X0, X2
	EXPAND(0x1b)
	AESENC X0, X2
	EXPAND(0x36)
	AESENCLAST X0, X2
	MOVUPS X2, (DX)
	RET

// func decryptBlockAESNI(key *Key, dst, src *[16]byte)
//
// The equivalent inverse cipher (FIPS-197 5.3.5) runs the round keys
// backwards, so all eleven are derived first and held in registers:
// InvMixColumns of round keys 1-9 in X5-X13, round key 10 in X0; round
// key 0, the key itself, is reloaded into X3 for the last round.
TEXT ·decryptBlockAESNI(SB), NOSPLIT, $0-24
	MOVQ   key+0(FP), AX
	MOVQ   dst+8(FP), DX
	MOVQ   src+16(FP), BX
	MOVUPS (AX), X0
	MOVOU  aesRotWord<>(SB), X14
	PXOR   X4, X4
	EXPAND(0x01)
	AESIMC X0, X5
	EXPAND(0x02)
	AESIMC X0, X6
	EXPAND(0x04)
	AESIMC X0, X7
	EXPAND(0x08)
	AESIMC X0, X8
	EXPAND(0x10)
	AESIMC X0, X9
	EXPAND(0x20)
	AESIMC X0, X10
	EXPAND(0x40)
	AESIMC X0, X11
	EXPAND(0x80)
	AESIMC X0, X12
	EXPAND(0x1b)
	AESIMC X0, X13
	EXPAND(0x36)
	MOVUPS (BX), X2
	PXOR   X0, X2
	AESDEC X13, X2
	AESDEC X12, X2
	AESDEC X11, X2
	AESDEC X10, X2
	AESDEC X9, X2
	AESDEC X8, X2
	AESDEC X7, X2
	AESDEC X6, X2
	AESDEC X5, X2
	MOVUPS (AX), X3
	AESDECLAST X3, X2
	MOVUPS X2, (DX)
	RET
