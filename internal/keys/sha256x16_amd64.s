//go:build amd64 && !purego

#include "textflag.h"

// SHA-256 of 16 independent messages in one call (AVX-512F):
// hashBlocksAVX512, the package's one 16-lane SHA-256 kernel, and the
// CPU check that gates it. The rounds are in sha256x16_amd64.h.
//
// The caller stages one message a lane, padded as SHA-256 pads it, in
// rows of a stride it chooses; three shapes use the kernel: LeafBatch's
// Merkle leaves (0x00 || domain || data, up to 17 blocks, rows of
// laneBytes), hashNodes' interior nodes (0x01 || left || right, 2
// blocks) and WrapBatch's two HMAC passes (key^ipad || ct, then
// key^opad || h, 2 blocks each). A block of the 16 lanes is loaded one
// row to a register and the 16 are transposed into one register per
// schedule word (TRANSPOSE16) and byte-swapped. The 16 digests leave
// the same way: byte-swapped, transposed back, and each lane's eight
// words stored under a mask (DIGESTS).

#include "sha256x16_amd64.h"

// SHA-256's round constants K and initial value IV.
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

// The byte mask of a 32-bit byte swap (BSWAP).
DATA bswapMask<>+0(SB)/4, $0xff00ff00
GLOBL bswapMask<>(SB), RODATA|NOPTR, $4

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

// TRANSPOSE4 transposes the 4x4 words in each 128-bit chunk of rows a,
// b, c and d: afterwards chunk j of a holds word 4j of the four rows,
// of b word 4j+1, of c word 4j+2 and of d word 4j+3. Clobbers Z8, Z9.
#define TRANSPOSE4(a, b, c, d) \
	VPUNPCKLDQ  b, a, Z8;   \
	VPUNPCKHDQ  b, a, b;    \
	VPUNPCKLDQ  d, c, Z9;   \
	VPUNPCKHDQ  d, c, d;    \
	VPUNPCKLQDQ Z9, Z8, a;  \
	VPUNPCKHQDQ Z9, Z8, Z9; \
	VPUNPCKLQDQ d, b, c;    \
	VPUNPCKHQDQ d, b, d;    \
	VMOVDQA32   Z9, b

// CHUNKS4 transposes the 4x4 128-bit chunks of r0-r3: afterwards rj
// holds chunk j of r0, r1, r2 and r3, in that order. Clobbers Z8, Z9.
#define CHUNKS4(r0, r1, r2, r3) \
	VSHUFI32X4 $0x88, r1, r0, Z8; \
	VSHUFI32X4 $0xdd, r1, r0, Z9; \
	VSHUFI32X4 $0x88, r3, r2, r0; \
	VSHUFI32X4 $0xdd, r3, r2, r1; \
	VSHUFI32X4 $0xdd, r0, Z8, r2; \
	VSHUFI32X4 $0x88, r0, Z8, r0; \
	VSHUFI32X4 $0xdd, r1, Z9, r3; \
	VSHUFI32X4 $0x88, r1, Z9, r1

// TRANSPOSE16 transposes the 16x16 words of Z16-Z31: word j of row i
// moves to word i of row j. Clobbers Z8, Z9.
#define TRANSPOSE16 \
	TRANSPOSE4(Z16, Z17, Z18, Z19); \
	TRANSPOSE4(Z20, Z21, Z22, Z23); \
	TRANSPOSE4(Z24, Z25, Z26, Z27); \
	TRANSPOSE4(Z28, Z29, Z30, Z31); \
	CHUNKS4(Z16, Z20, Z24, Z28);    \
	CHUNKS4(Z17, Z21, Z25, Z29);    \
	CHUNKS4(Z18, Z22, Z26, Z30);    \
	CHUNKS4(Z19, Z23, Z27, Z31)

// ROWS loads block row i of lane i into Z(16+i): lanes 0-7 at SI plus
// 0-7 strides, lanes 8-15 at DI = SI + 8 strides plus 0-7. R9, R11, R12
// and R13 hold 1, 3, 5 and 7 strides.
#define ROWS                           \
	LEAQ      (SI)(R9*8), DI;      \
	VMOVDQU32 (SI), Z16;           \
	VMOVDQU32 (SI)(R9*1), Z17;     \
	VMOVDQU32 (SI)(R9*2), Z18;     \
	VMOVDQU32 (SI)(R11*1), Z19;    \
	VMOVDQU32 (SI)(R9*4), Z20;     \
	VMOVDQU32 (SI)(R12*1), Z21;    \
	VMOVDQU32 (SI)(R11*2), Z22;    \
	VMOVDQU32 (SI)(R13*1), Z23;    \
	VMOVDQU32 (DI), Z24;           \
	VMOVDQU32 (DI)(R9*1), Z25;     \
	VMOVDQU32 (DI)(R9*2), Z26;     \
	VMOVDQU32 (DI)(R11*1), Z27;    \
	VMOVDQU32 (DI)(R9*4), Z28;     \
	VMOVDQU32 (DI)(R12*1), Z29;    \
	VMOVDQU32 (DI)(R11*2), Z30;    \
	VMOVDQU32 (DI)(R13*1), Z31

// WORDS16 turns 16 rows of a block, row i in Z(16+i), into its 16
// big-endian schedule words, word j of every lane in Z(16+j).
// Clobbers Z8-Z10.
#define WORDS16                                 \
	TRANSPOSE16;                            \
	VPBROADCASTD bswapMask<>+0(SB), Z10; \
	BSWAP(Z16);                             \
	BSWAP(Z17);                             \
	BSWAP(Z18);                             \
	BSWAP(Z19);                             \
	BSWAP(Z20);                             \
	BSWAP(Z21);                             \
	BSWAP(Z22);                             \
	BSWAP(Z23);                             \
	BSWAP(Z24);                             \
	BSWAP(Z25);                             \
	BSWAP(Z26);                             \
	BSWAP(Z27);                             \
	BSWAP(Z28);                             \
	BSWAP(Z29);                             \
	BSWAP(Z30);                             \
	BSWAP(Z31)

// DIGESTS stores the 16 lanes' digests, whose words 0-7 are in
// Z16-Z23, to dst, lane i's 32 bytes at 32*i: it byte-swaps them,
// transposes them into one row per lane (Z24-Z31 are don't-cares), and
// stores each row's first eight words under a mask. Clobbers Z8-Z10,
// R10 and K2.
#define DIGESTS(dst)                            \
	VPBROADCASTD bswapMask<>+0(SB), Z10; \
	BSWAP(Z16);                             \
	BSWAP(Z17);                             \
	BSWAP(Z18);                             \
	BSWAP(Z19);                             \
	BSWAP(Z20);                             \
	BSWAP(Z21);                             \
	BSWAP(Z22);                             \
	BSWAP(Z23);                             \
	TRANSPOSE16;                            \
	MOVL         $0xff, R10;                \
	KMOVW        R10, K2;                   \
	VMOVDQU32    Z16, K2, 0(dst);           \
	VMOVDQU32    Z17, K2, 32(dst);          \
	VMOVDQU32    Z18, K2, 64(dst);          \
	VMOVDQU32    Z19, K2, 96(dst);          \
	VMOVDQU32    Z20, K2, 128(dst);         \
	VMOVDQU32    Z21, K2, 160(dst);         \
	VMOVDQU32    Z22, K2, 192(dst);         \
	VMOVDQU32    Z23, K2, 224(dst);         \
	VMOVDQU32    Z24, K2, 256(dst);         \
	VMOVDQU32    Z25, K2, 288(dst);         \
	VMOVDQU32    Z26, K2, 320(dst);         \
	VMOVDQU32    Z27, K2, 352(dst);         \
	VMOVDQU32    Z28, K2, 384(dst);         \
	VMOVDQU32    Z29, K2, 416(dst);         \
	VMOVDQU32    Z30, K2, 448(dst);         \
	VMOVDQU32    Z31, K2, 480(dst)

// func hashBlocksAVX512(msgs *byte, stride int, blocks *[16]uint32, maxBlocks int, out *[16][32]byte)
//
// Lane i's message is the first blocks[i] 64-byte blocks of the row at
// msgs + i*stride, padded as SHA-256 pads it; out[i] is set to its
// SHA-256. maxBlocks is the largest blocks[i] and at least 1; every row
// must hold maxBlocks blocks. Lanes of different lengths share the
// call: it runs maxBlocks blocks, and after block b it adds the block's
// result into the chaining value of only the lanes that have a block b
// (a masked store under K1); a shorter lane's later blocks are computed
// and dropped. The chaining values wait in the frame between blocks.
// They derive from WrapBatch's keys when the rows are HMAC messages, so
// the frame is zeroed before return, whoever the caller.
TEXT ·hashBlocksAVX512(SB), 0, $512-40
	MOVQ msgs+0(FP), SI
	MOVQ stride+8(FP), R9
	MOVQ blocks+16(FP), DI
	MOVQ maxBlocks+24(FP), R8
	MOVQ out+32(FP), DX
	VMOVDQU32 (DI), Z11
	LEAQ (R9)(R9*2), R11
	LEAQ (R9)(R9*4), R12
	LEAQ (R11)(R9*4), R13

	// The chaining values, IV in every lane, to the frame.
	VPBROADCASTD sha256IV<>+0(SB), Z0
	VMOVDQU32    Z0, 0(SP)
	VPBROADCASTD sha256IV<>+4(SB), Z0
	VMOVDQU32    Z0, 64(SP)
	VPBROADCASTD sha256IV<>+8(SB), Z0
	VMOVDQU32    Z0, 128(SP)
	VPBROADCASTD sha256IV<>+12(SB), Z0
	VMOVDQU32    Z0, 192(SP)
	VPBROADCASTD sha256IV<>+16(SB), Z0
	VMOVDQU32    Z0, 256(SP)
	VPBROADCASTD sha256IV<>+20(SB), Z0
	VMOVDQU32    Z0, 320(SP)
	VPBROADCASTD sha256IV<>+24(SB), Z0
	VMOVDQU32    Z0, 384(SP)
	VPBROADCASTD sha256IV<>+28(SB), Z0
	VMOVDQU32    Z0, 448(SP)
	XORQ BX, BX

block:
	// Block BX of every lane, one row each, as schedule words.
	ROWS
	WORDS16
	VMOVDQU32 0(SP), Z0
	VMOVDQU32 64(SP), Z1
	VMOVDQU32 128(SP), Z2
	VMOVDQU32 192(SP), Z3
	VMOVDQU32 256(SP), Z4
	VMOVDQU32 320(SP), Z5
	VMOVDQU32 384(SP), Z6
	VMOVDQU32 448(SP), Z7
	COMPRESS(scheduled)

	// The lanes with a block BX take its result into their chaining
	// value; the others keep theirs.
	VPBROADCASTD BX, Z12
	VPCMPUD      $6, Z12, Z11, K1
	VPADDD    0(SP), Z0, Z0
	VMOVDQU32 Z0, K1, 0(SP)
	VPADDD    64(SP), Z1, Z1
	VMOVDQU32 Z1, K1, 64(SP)
	VPADDD    128(SP), Z2, Z2
	VMOVDQU32 Z2, K1, 128(SP)
	VPADDD    192(SP), Z3, Z3
	VMOVDQU32 Z3, K1, 192(SP)
	VPADDD    256(SP), Z4, Z4
	VMOVDQU32 Z4, K1, 256(SP)
	VPADDD    320(SP), Z5, Z5
	VMOVDQU32 Z5, K1, 320(SP)
	VPADDD    384(SP), Z6, Z6
	VMOVDQU32 Z6, K1, 384(SP)
	VPADDD    448(SP), Z7, Z7
	VMOVDQU32 Z7, K1, 448(SP)
	ADDQ $64, SI
	INCQ BX
	CMPQ BX, R8
	JB   block

	// The digests, out of the frame, which is then zeroed.
	VMOVDQU32 0(SP), Z16
	VMOVDQU32 64(SP), Z17
	VMOVDQU32 128(SP), Z18
	VMOVDQU32 192(SP), Z19
	VMOVDQU32 256(SP), Z20
	VMOVDQU32 320(SP), Z21
	VMOVDQU32 384(SP), Z22
	VMOVDQU32 448(SP), Z23
	VPXORD    Z0, Z0, Z0
	VMOVDQU32 Z0, 0(SP)
	VMOVDQU32 Z0, 64(SP)
	VMOVDQU32 Z0, 128(SP)
	VMOVDQU32 Z0, 192(SP)
	VMOVDQU32 Z0, 256(SP)
	VMOVDQU32 Z0, 320(SP)
	VMOVDQU32 Z0, 384(SP)
	VMOVDQU32 Z0, 448(SP)
	DIGESTS(DX)
	VZEROUPPER
	RET
