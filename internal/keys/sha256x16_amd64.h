// SHA-256's rounds on 16 independent lanes (AVX-512F), for the 16-lane
// kernel hashBlocksAVX512 (sha256x16_amd64.s), which includes this file.
//
// Register Zj holds one quantity for all 16 lanes, one lane per 32-bit
// element: the state a-h in Z0-Z7, the message schedule's 16-word
// window in Z16-Z31, round temporaries in Z8-Z10. AX points at the K of
// the 16-round block running (sha256K<>, sha256x16_amd64.s). Z15 is left
// alone: X15 is the Go ABI's zero register.

// ROUND is one SHA-256 round on the 16 lanes. k is this round's offset
// in the 16-round block at AX. The round's new a lands in h's register
// and its new e in d's, so the caller rotates the register names
// instead of moving the state.
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
// left by 8. Z10 holds the byte mask 0xff00ff00 in every element.
#define BSWAP(w) \
	VPRORD     $8, w, Z8; \
	VPROLD     $8, w, w;  \
	VPTERNLOGD $0xd8, Z10, Z8, w

// ROUNDS16_SCHED runs the 16 rounds of the block at AX and extends the
// schedule window by 16 words as it uses them.
#define ROUNDS16_SCHED \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 0);  \
	SCHED(Z16, Z17, Z25, Z30);                      \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 4);  \
	SCHED(Z17, Z18, Z26, Z31);                      \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 8);  \
	SCHED(Z18, Z19, Z27, Z16);                      \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 12); \
	SCHED(Z19, Z20, Z28, Z17);                      \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 16); \
	SCHED(Z20, Z21, Z29, Z18);                      \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 20); \
	SCHED(Z21, Z22, Z30, Z19);                      \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 24); \
	SCHED(Z22, Z23, Z31, Z20);                      \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 28); \
	SCHED(Z23, Z24, Z16, Z21);                      \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z24, 32); \
	SCHED(Z24, Z25, Z17, Z22);                      \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z25, 36); \
	SCHED(Z25, Z26, Z18, Z23);                      \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z26, 40); \
	SCHED(Z26, Z27, Z19, Z24);                      \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z27, 44); \
	SCHED(Z27, Z28, Z20, Z25);                      \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z28, 48); \
	SCHED(Z28, Z29, Z21, Z26);                      \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z29, 52); \
	SCHED(Z29, Z30, Z22, Z27);                      \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z30, 56); \
	SCHED(Z30, Z31, Z23, Z28);                      \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z31, 60); \
	SCHED(Z31, Z16, Z24, Z29)

// ROUNDS16 runs the last 16 rounds, on the window as it stands.
#define ROUNDS16 \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 0);  \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 4);  \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 8);  \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 12); \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 16); \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 20); \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 24); \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 28); \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z24, 32); \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z25, 36); \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z26, 40); \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z27, 44); \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z28, 48); \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z29, 52); \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z30, 56); \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z31, 60)

// COMPRESS runs SHA-256's 64 rounds on the state in Z0-Z7 and the
// block in Z16-Z31: three 16-round blocks that extend the schedule as
// they use it, then the last 16. label names the loop's top, which
// must be unique in the function. Clobbers AX, CX and Z8-Z10.
#define COMPRESS(label) \
	LEAQ sha256K<>(SB), AX; \
	MOVQ $3, CX;           \
label:                     \
	ROUNDS16_SCHED;        \
	ADDQ $64, AX;          \
	DECQ CX;               \
	JNZ  label;            \
	ROUNDS16
