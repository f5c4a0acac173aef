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
// where C(s, m) = s + R(s, m) and R is SHA-256's 64 rounds. Register Zj
// holds one quantity for all 16 lanes, one lane per 32-bit element:
// the state a-h in Z0-Z7, the message schedule's 16-word window in
// Z16-Z31, round temporaries in Z8-Z10. Each lane's 16 key or
// ciphertext bytes are transposed and byte-swapped into words in
// registers (WORDS). The pads are built in the schedule registers and
// never written to memory; the chaining values s1 and s2 wait in the
// frame while the other compressions run, and the frame is zeroed
// before return. Z15 is left alone: X15 is the Go ABI's zero register.

DATA sha256K<>+0(SB)/4, $0x428a2f98
DATA sha256K<>+4(SB)/4, $0x71374491
DATA sha256K<>+8(SB)/4, $0xb5c0fbcf
DATA sha256K<>+12(SB)/4, $0xe9b5dba5
DATA sha256K<>+16(SB)/4, $0x3956c25b
DATA sha256K<>+20(SB)/4, $0x59f111f1
DATA sha256K<>+24(SB)/4, $0x923f82a4
DATA sha256K<>+28(SB)/4, $0xab1c5ed5
DATA sha256K<>+32(SB)/4, $0xd807aa98
DATA sha256K<>+36(SB)/4, $0x12835b01
DATA sha256K<>+40(SB)/4, $0x243185be
DATA sha256K<>+44(SB)/4, $0x550c7dc3
DATA sha256K<>+48(SB)/4, $0x72be5d74
DATA sha256K<>+52(SB)/4, $0x80deb1fe
DATA sha256K<>+56(SB)/4, $0x9bdc06a7
DATA sha256K<>+60(SB)/4, $0xc19bf174
DATA sha256K<>+64(SB)/4, $0xe49b69c1
DATA sha256K<>+68(SB)/4, $0xefbe4786
DATA sha256K<>+72(SB)/4, $0x0fc19dc6
DATA sha256K<>+76(SB)/4, $0x240ca1cc
DATA sha256K<>+80(SB)/4, $0x2de92c6f
DATA sha256K<>+84(SB)/4, $0x4a7484aa
DATA sha256K<>+88(SB)/4, $0x5cb0a9dc
DATA sha256K<>+92(SB)/4, $0x76f988da
DATA sha256K<>+96(SB)/4, $0x983e5152
DATA sha256K<>+100(SB)/4, $0xa831c66d
DATA sha256K<>+104(SB)/4, $0xb00327c8
DATA sha256K<>+108(SB)/4, $0xbf597fc7
DATA sha256K<>+112(SB)/4, $0xc6e00bf3
DATA sha256K<>+116(SB)/4, $0xd5a79147
DATA sha256K<>+120(SB)/4, $0x06ca6351
DATA sha256K<>+124(SB)/4, $0x14292967
DATA sha256K<>+128(SB)/4, $0x27b70a85
DATA sha256K<>+132(SB)/4, $0x2e1b2138
DATA sha256K<>+136(SB)/4, $0x4d2c6dfc
DATA sha256K<>+140(SB)/4, $0x53380d13
DATA sha256K<>+144(SB)/4, $0x650a7354
DATA sha256K<>+148(SB)/4, $0x766a0abb
DATA sha256K<>+152(SB)/4, $0x81c2c92e
DATA sha256K<>+156(SB)/4, $0x92722c85
DATA sha256K<>+160(SB)/4, $0xa2bfe8a1
DATA sha256K<>+164(SB)/4, $0xa81a664b
DATA sha256K<>+168(SB)/4, $0xc24b8b70
DATA sha256K<>+172(SB)/4, $0xc76c51a3
DATA sha256K<>+176(SB)/4, $0xd192e819
DATA sha256K<>+180(SB)/4, $0xd6990624
DATA sha256K<>+184(SB)/4, $0xf40e3585
DATA sha256K<>+188(SB)/4, $0x106aa070
DATA sha256K<>+192(SB)/4, $0x19a4c116
DATA sha256K<>+196(SB)/4, $0x1e376c08
DATA sha256K<>+200(SB)/4, $0x2748774c
DATA sha256K<>+204(SB)/4, $0x34b0bcb5
DATA sha256K<>+208(SB)/4, $0x391c0cb3
DATA sha256K<>+212(SB)/4, $0x4ed8aa4a
DATA sha256K<>+216(SB)/4, $0x5b9cca4f
DATA sha256K<>+220(SB)/4, $0x682e6ff3
DATA sha256K<>+224(SB)/4, $0x748f82ee
DATA sha256K<>+228(SB)/4, $0x78a5636f
DATA sha256K<>+232(SB)/4, $0x84c87814
DATA sha256K<>+236(SB)/4, $0x8cc70208
DATA sha256K<>+240(SB)/4, $0x90befffa
DATA sha256K<>+244(SB)/4, $0xa4506ceb
DATA sha256K<>+248(SB)/4, $0xbef9a3f7
DATA sha256K<>+252(SB)/4, $0xc67178f2
GLOBL sha256K<>(SB), RODATA|NOPTR, $256

DATA sha256IV<>+0(SB)/4, $0x6a09e667
DATA sha256IV<>+4(SB)/4, $0xbb67ae85
DATA sha256IV<>+8(SB)/4, $0x3c6ef372
DATA sha256IV<>+12(SB)/4, $0xa54ff53a
DATA sha256IV<>+16(SB)/4, $0x510e527f
DATA sha256IV<>+20(SB)/4, $0x9b05688c
DATA sha256IV<>+24(SB)/4, $0x1f83d9ab
DATA sha256IV<>+28(SB)/4, $0x5be0cd19
GLOBL sha256IV<>(SB), RODATA|NOPTR, $32

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

// func cpuHasAVX512F() bool
//
// CPUID.7.0:EBX[16] (AVX512F), with OSXSAVE (CPUID.1:ECX[27]) and the
// XCR0 bits that say the OS saves the SSE, AVX and AVX-512 state
// (1, 2, 5, 6 and 7).
TEXT ·cpuHasAVX512F(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	CPUID
	BTL  $27, CX
	JCC  done
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// ROUND is one SHA-256 round on the 16 lanes. AX points at the K of
// the 16-round block, k is this round's offset in it. The round's new
// a lands in h's register and its new e in d's, so the caller rotates
// the register names instead of moving the state.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST k(AX), h, h;        \
	VPADDD      w, h, h;            \
	VPRORD      $6, e, Z8;          \
	VPRORD      $11, e, Z9;         \
	VPRORD      $25, e, Z10;        \
	VPTERNLOGD  $0x96, Z10, Z9, Z8; \
	VPADDD      Z8, h, h;           \
	VMOVDQA32   e, Z8;              \
	VPTERNLOGD  $0xca, g, f, Z8;    \
	VPADDD      Z8, h, h;           \
	VPADDD      h, d, d;            \
	VPRORD      $2, a, Z8;          \
	VPRORD      $13, a, Z9;         \
	VPRORD      $22, a, Z10;        \
	VPTERNLOGD  $0x96, Z10, Z9, Z8; \
	VPADDD      Z8, h, h;           \
	VMOVDQA32   a, Z8;              \
	VPTERNLOGD  $0xe8, c, b, Z8;    \
	VPADDD      Z8, h, h

// SCHED replaces schedule word w0 = W[t], used by this round, with
// W[t+16] = sigma1(W[t+14]) + W[t+9] + sigma0(W[t+1]) + W[t].
#define SCHED(w0, w1, w9, w14) \
	VPRORD     $7, w1, Z8;         \
	VPRORD     $18, w1, Z9;        \
	VPSRLD     $3, w1, Z10;        \
	VPTERNLOGD $0x96, Z10, Z9, Z8; \
	VPADDD     Z8, w0, w0;         \
	VPRORD     $17, w14, Z8;       \
	VPRORD     $19, w14, Z9;       \
	VPSRLD     $10, w14, Z10;      \
	VPTERNLOGD $0x96, Z10, Z9, Z8; \
	VPADDD     Z8, w0, w0;         \
	VPADDD     w9, w0, w0

// BSWAP reverses the bytes of each 32-bit element of w: the bytes at
// odd positions from w rotated right by 8, the others from w rotated
// left by 8. Z10 holds the byte mask.
#define BSWAP(w) \
	VPRORD     $8, w, Z8; \
	VPROLD     $8, w, w;  \
	VPTERNLOGD $0xd8, Z10, Z8, w

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
	LEAQ sha256IV<>(SB), R8

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
	// R(state, schedule): three 16-round blocks that extend the
	// schedule as they use it, then the last 16 rounds.
	LEAQ sha256K<>(SB), AX
	MOVQ $3, CX

scheduled:
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 0)
	SCHED(Z16, Z17, Z25, Z30)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 4)
	SCHED(Z17, Z18, Z26, Z31)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 8)
	SCHED(Z18, Z19, Z27, Z16)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 12)
	SCHED(Z19, Z20, Z28, Z17)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 16)
	SCHED(Z20, Z21, Z29, Z18)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 20)
	SCHED(Z21, Z22, Z30, Z19)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 24)
	SCHED(Z22, Z23, Z31, Z20)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 28)
	SCHED(Z23, Z24, Z16, Z21)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z24, 32)
	SCHED(Z24, Z25, Z17, Z22)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z25, 36)
	SCHED(Z25, Z26, Z18, Z23)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z26, 40)
	SCHED(Z26, Z27, Z19, Z24)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z27, 44)
	SCHED(Z27, Z28, Z20, Z25)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z28, 48)
	SCHED(Z28, Z29, Z21, Z26)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z29, 52)
	SCHED(Z29, Z30, Z22, Z27)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z30, 56)
	SCHED(Z30, Z31, Z23, Z28)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z31, 60)
	SCHED(Z31, Z16, Z24, Z29)
	ADDQ $64, AX
	DECQ CX
	JNZ  scheduled

	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 0)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 4)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 8)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 12)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 16)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 20)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 24)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 28)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z24, 32)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z25, 36)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z26, 40)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z27, 44)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z28, 48)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z29, 52)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z30, 56)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z31, 60)
	CMPQ BX, $1
	JB   ipadDone
	JE   opadDone
	CMPQ BX, $2
	JE   innerDone
	JMP  outerDone
