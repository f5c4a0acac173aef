//go:build amd64 && !purego

#include "textflag.h"

// The wrap tags of 16 independent lanes in one call (AVX-512F).
//
// Lane i's tag is the first word of HMAC-SHA256(key_i, ct_i) for a
// 16-byte key and a 16-byte ciphertext. With the key and the message
// that short, HMAC is four SHA-256 compressions of one block each, and
// its fixed padding folds into constants (word numbers are the
// schedule's big-endian 32-bit words):
//
//	s1 = C(IV, key^ipad)  key^0x36363636 in words 0-3, 0x36363636 in 4-15
//	s2 = C(IV, key^opad)  key^0x5c5c5c5c in words 0-3, 0x5c5c5c5c in 4-15
//	h  = C(s1, ct)        ct in words 0-3, 0x80000000 in 4, 640 in 15
//	t  = C(s2, h)[0]      h in words 0-7, 0x80000000 in 8, 768 in 15
//
// where C(s, m) = s + R(s, m) and R is SHA-256's 64 rounds
// (sha256x16_amd64.h). Each lane's 16 key or ciphertext bytes are
// transposed and byte-swapped into words in registers (WORDS). The pads
// are built in the schedule registers and never written to memory; the
// chaining values s1 and s2 wait in the frame while the other
// compressions run, and the frame is zeroed before return.

#include "sha256x16_amd64.h"

// The HMAC pad bytes, the SHA-256 padding of the two 80- and 96-byte
// messages (the 0x80 end marker and the bit lengths), and the byte mask
// of a 32-bit byte swap.
DATA tagConsts<>+0(SB)/4, $0x36363636
DATA tagConsts<>+4(SB)/4, $0x5c5c5c5c
DATA tagConsts<>+8(SB)/4, $0x80000000
DATA tagConsts<>+12(SB)/4, $640
DATA tagConsts<>+16(SB)/4, $768
DATA tagConsts<>+20(SB)/4, $0xff00ff00
GLOBL tagConsts<>(SB), RODATA|NOPTR, $24

// VPERMI2D indices that gather, from two registers of four lanes' words
// each, word w of the eight lanes into one half of a register: lane k's
// word w sits at element 4k+w of the pair.
DATA tagIdx01<>+0(SB)/4, $0
DATA tagIdx01<>+4(SB)/4, $4
DATA tagIdx01<>+8(SB)/4, $8
DATA tagIdx01<>+12(SB)/4, $12
DATA tagIdx01<>+16(SB)/4, $16
DATA tagIdx01<>+20(SB)/4, $20
DATA tagIdx01<>+24(SB)/4, $24
DATA tagIdx01<>+28(SB)/4, $28
DATA tagIdx01<>+32(SB)/4, $1
DATA tagIdx01<>+36(SB)/4, $5
DATA tagIdx01<>+40(SB)/4, $9
DATA tagIdx01<>+44(SB)/4, $13
DATA tagIdx01<>+48(SB)/4, $17
DATA tagIdx01<>+52(SB)/4, $21
DATA tagIdx01<>+56(SB)/4, $25
DATA tagIdx01<>+60(SB)/4, $29
GLOBL tagIdx01<>(SB), RODATA|NOPTR, $64
DATA tagIdx23<>+0(SB)/4, $2
DATA tagIdx23<>+4(SB)/4, $6
DATA tagIdx23<>+8(SB)/4, $10
DATA tagIdx23<>+12(SB)/4, $14
DATA tagIdx23<>+16(SB)/4, $18
DATA tagIdx23<>+20(SB)/4, $22
DATA tagIdx23<>+24(SB)/4, $26
DATA tagIdx23<>+28(SB)/4, $30
DATA tagIdx23<>+32(SB)/4, $3
DATA tagIdx23<>+36(SB)/4, $7
DATA tagIdx23<>+40(SB)/4, $11
DATA tagIdx23<>+44(SB)/4, $15
DATA tagIdx23<>+48(SB)/4, $19
DATA tagIdx23<>+52(SB)/4, $23
DATA tagIdx23<>+56(SB)/4, $27
DATA tagIdx23<>+60(SB)/4, $31
GLOBL tagIdx23<>(SB), RODATA|NOPTR, $64

// WORDS loads 16 lanes' 16 bytes from src, lane i at 16*i, and leaves
// big-endian word j of every lane in register Zj of Z16-Z19: four
// VPERMI2D gather words 0-1 and 2-3 of lanes 0-7 and 8-15 into halves,
// four VSHUFI64X2 join the halves. Clobbers Z8, Z10-Z14 and Z24-Z27.
#define WORDS(src) \
	VMOVDQU32    0(src), Z11;                    \
	VMOVDQU32    64(src), Z12;                   \
	VMOVDQU32    128(src), Z13;                  \
	VMOVDQU32    192(src), Z14;                  \
	VMOVDQU32    tagIdx01<>(SB), Z24;            \
	VPERMI2D     Z12, Z11, Z24;                  \
	VMOVDQU32    tagIdx23<>(SB), Z25;            \
	VPERMI2D     Z12, Z11, Z25;                  \
	VMOVDQU32    tagIdx01<>(SB), Z26;            \
	VPERMI2D     Z14, Z13, Z26;                  \
	VMOVDQU32    tagIdx23<>(SB), Z27;            \
	VPERMI2D     Z14, Z13, Z27;                  \
	VSHUFI64X2   $0x44, Z26, Z24, Z16;           \
	VSHUFI64X2   $0xee, Z26, Z24, Z17;           \
	VSHUFI64X2   $0x44, Z27, Z25, Z18;           \
	VSHUFI64X2   $0xee, Z27, Z25, Z19;           \
	VPBROADCASTD tagConsts<>+20(SB), Z10;        \
	BSWAP(Z16);                                  \
	BSWAP(Z17);                                  \
	BSWAP(Z18);                                  \
	BSWAP(Z19)

// PADBLOCK sets the state to IV and the schedule to the key XOR the
// pad word at tagConsts+pad in words 0-3, the pad word in words 4-15.
#define PADBLOCK(pad) \
	WORDS(SI);                             \
	VPBROADCASTD tagConsts<>+pad(SB), Z31; \
	VPXORD       Z31, Z16, Z16;            \
	VPXORD       Z31, Z17, Z17;            \
	VPXORD       Z31, Z18, Z18;            \
	VPXORD       Z31, Z19, Z19;            \
	VMOVDQA32    Z31, Z20;                 \
	VMOVDQA32    Z31, Z21;                 \
	VMOVDQA32    Z31, Z22;                 \
	VMOVDQA32    Z31, Z23;                 \
	VMOVDQA32    Z31, Z24;                 \
	VMOVDQA32    Z31, Z25;                 \
	VMOVDQA32    Z31, Z26;                 \
	VMOVDQA32    Z31, Z27;                 \
	VMOVDQA32    Z31, Z28;                 \
	VMOVDQA32    Z31, Z29;                 \
	VMOVDQA32    Z31, Z30;                 \
	VPBROADCASTD 0(R8), Z0;                \
	VPBROADCASTD 4(R8), Z1;                \
	VPBROADCASTD 8(R8), Z2;                \
	VPBROADCASTD 12(R8), Z3;               \
	VPBROADCASTD 16(R8), Z4;               \
	VPBROADCASTD 20(R8), Z5;               \
	VPBROADCASTD 24(R8), Z6;               \
	VPBROADCASTD 28(R8), Z7

// func tagsAVX512(key, ct *[16][16]byte, tags *[16]uint32)
//
// key[i] and ct[i] are lane i's key and ciphertext; tags[i] is set to
// the first word of lane i's HMAC. The four
// compressions share one copy of the rounds: BX names the compression
// running, and the rounds branch back on it.
TEXT ·tagsAVX512(SB), 0, $1024-24
	MOVQ key+0(FP), SI
	MOVQ ct+8(FP), DI
	MOVQ tags+16(FP), DX
	LEAQ ·sha256IV(SB), R8

	PADBLOCK(0)
	XORQ BX, BX
	JMP  compress

ipadDone:
	// s1 = IV + R(IV, key^ipad), to the frame's first half.
	VPADDD.BCST  0(R8), Z0, Z0
	VMOVDQU32    Z0, 0(SP)
	VPADDD.BCST  4(R8), Z1, Z1
	VMOVDQU32    Z1, 64(SP)
	VPADDD.BCST  8(R8), Z2, Z2
	VMOVDQU32    Z2, 128(SP)
	VPADDD.BCST  12(R8), Z3, Z3
	VMOVDQU32    Z3, 192(SP)
	VPADDD.BCST  16(R8), Z4, Z4
	VMOVDQU32    Z4, 256(SP)
	VPADDD.BCST  20(R8), Z5, Z5
	VMOVDQU32    Z5, 320(SP)
	VPADDD.BCST  24(R8), Z6, Z6
	VMOVDQU32    Z6, 384(SP)
	VPADDD.BCST  28(R8), Z7, Z7
	VMOVDQU32    Z7, 448(SP)
	PADBLOCK(4)
	MOVQ $1, BX
	JMP  compress

opadDone:
	// s2 = IV + R(IV, key^opad), to the frame's second half. Then the
	// inner block from s1: the ciphertext and its padding.
	VPADDD.BCST  0(R8), Z0, Z0
	VMOVDQU32    Z0, 512+0(SP)
	VMOVDQU32    0(SP), Z0
	VPADDD.BCST  4(R8), Z1, Z1
	VMOVDQU32    Z1, 512+64(SP)
	VMOVDQU32    64(SP), Z1
	VPADDD.BCST  8(R8), Z2, Z2
	VMOVDQU32    Z2, 512+128(SP)
	VMOVDQU32    128(SP), Z2
	VPADDD.BCST  12(R8), Z3, Z3
	VMOVDQU32    Z3, 512+192(SP)
	VMOVDQU32    192(SP), Z3
	VPADDD.BCST  16(R8), Z4, Z4
	VMOVDQU32    Z4, 512+256(SP)
	VMOVDQU32    256(SP), Z4
	VPADDD.BCST  20(R8), Z5, Z5
	VMOVDQU32    Z5, 512+320(SP)
	VMOVDQU32    320(SP), Z5
	VPADDD.BCST  24(R8), Z6, Z6
	VMOVDQU32    Z6, 512+384(SP)
	VMOVDQU32    384(SP), Z6
	VPADDD.BCST  28(R8), Z7, Z7
	VMOVDQU32    Z7, 512+448(SP)
	VMOVDQU32    448(SP), Z7
	WORDS(DI)
	VPBROADCASTD tagConsts<>+8(SB), Z20
	VPXORD       Z21, Z21, Z21
	VMOVDQA32    Z21, Z22
	VMOVDQA32    Z21, Z23
	VMOVDQA32    Z21, Z24
	VMOVDQA32    Z21, Z25
	VMOVDQA32    Z21, Z26
	VMOVDQA32    Z21, Z27
	VMOVDQA32    Z21, Z28
	VMOVDQA32    Z21, Z29
	VMOVDQA32    Z21, Z30
	VPBROADCASTD tagConsts<>+12(SB), Z31
	MOVQ         $2, BX
	JMP          compress

innerDone:
	// The outer block from s2: the inner hash h = s1 + R(s1, ct) and
	// its padding.
	VPADDD       0(SP), Z0, Z16
	VMOVDQU32    512+0(SP), Z0
	VPADDD       64(SP), Z1, Z17
	VMOVDQU32    512+64(SP), Z1
	VPADDD       128(SP), Z2, Z18
	VMOVDQU32    512+128(SP), Z2
	VPADDD       192(SP), Z3, Z19
	VMOVDQU32    512+192(SP), Z3
	VPADDD       256(SP), Z4, Z20
	VMOVDQU32    512+256(SP), Z4
	VPADDD       320(SP), Z5, Z21
	VMOVDQU32    512+320(SP), Z5
	VPADDD       384(SP), Z6, Z22
	VMOVDQU32    512+384(SP), Z6
	VPADDD       448(SP), Z7, Z23
	VMOVDQU32    512+448(SP), Z7
	VPBROADCASTD tagConsts<>+8(SB), Z24
	VPXORD       Z25, Z25, Z25
	VMOVDQA32    Z25, Z26
	VMOVDQA32    Z25, Z27
	VMOVDQA32    Z25, Z28
	VMOVDQA32    Z25, Z29
	VMOVDQA32    Z25, Z30
	VPBROADCASTD tagConsts<>+16(SB), Z31
	MOVQ         $3, BX
	JMP          compress

outerDone:
	// The tag word: s2[0] + R(s2, h)'s a. Then zero the frame.
	VPADDD    512(SP), Z0, Z0
	VMOVDQU32 Z0, (DX)
	VPXORD    Z8, Z8, Z8
	VMOVDQU32    Z8, 0(SP)
	VMOVDQU32    Z8, 512+0(SP)
	VMOVDQU32    Z8, 64(SP)
	VMOVDQU32    Z8, 512+64(SP)
	VMOVDQU32    Z8, 128(SP)
	VMOVDQU32    Z8, 512+128(SP)
	VMOVDQU32    Z8, 192(SP)
	VMOVDQU32    Z8, 512+192(SP)
	VMOVDQU32    Z8, 256(SP)
	VMOVDQU32    Z8, 512+256(SP)
	VMOVDQU32    Z8, 320(SP)
	VMOVDQU32    Z8, 512+320(SP)
	VMOVDQU32    Z8, 384(SP)
	VMOVDQU32    Z8, 512+384(SP)
	VMOVDQU32    Z8, 448(SP)
	VMOVDQU32    Z8, 512+448(SP)
	VZEROUPPER
	RET

compress:
	// R(state, schedule); then branch back on BX.
	COMPRESS(scheduled)
	CMPQ BX, $1
	JB   ipadDone
	JE   opadDone
	CMPQ BX, $2
	JE   innerDone
	JMP  outerDone
