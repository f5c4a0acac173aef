//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasBMI2ADX() bool
//
// CPUID.7.0:EBX[8] (BMI2, for MULX) and CPUID.7.0:EBX[19] (ADX, for
// ADCX and ADOX). Both run on general registers only, so no OS state
// needs checking.
TEXT ·cpuHasBMI2ADX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x80100, BX
	CMPL  BX, $0x80100
	JNE   done
	MOVB  $1, ret+0(FP)

done:
	RET

// LIMB(off, hiIn, hiOut) adds x[off]·y and the previous limb's high
// word hiIn into z[off], leaving the product's high word in hiOut. The
// low words and the high words ride the CF chain (ADCX), the z words
// the OF chain (ADOX); nothing else in the loop writes either flag.
#define LIMB(off, hiIn, hiOut) \
	MULXQ off(SI), AX, hiOut; \
	ADCXQ hiIn, AX;           \
	ADOXQ off(DI), AX;        \
	MOVQ  AX, off(DI)

// func addMulRow(z, x *uint64, chunks int, y uint64) (c uint64)
//
// z[0:8·chunks] += x[0:8·chunks]·y, returning the word carried out of
// the top limb. The two carry chains run the whole row: the pointers
// and the counter advance by LEAQ and the loop ends on JCXZ, none of
// which touches a flag. chunks must be positive.
TEXT ·addMulRow(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ chunks+16(FP), CX
	MOVQ y+24(FP), DX
	XORQ R9, R9 // R9 stays zero; clears CF and OF
	XORQ BX, BX // the high word carried into limb 0

loop:
	LIMB(0, BX, R8)
	LIMB(8, R8, BX)
	LIMB(16, BX, R8)
	LIMB(24, R8, BX)
	LIMB(32, BX, R8)
	LIMB(40, R8, BX)
	LIMB(48, BX, R8)
	LIMB(56, R8, BX)
	LEAQ  64(SI), SI
	LEAQ  64(DI), DI
	LEAQ  -1(CX), CX
	JCXZQ done
	JMP   loop

done:
	// The row's sum fits in 8·chunks+1 limbs, so the top limb's high
	// word plus both chains' last carries does not overflow.
	ADCXQ R9, BX
	ADOXQ R9, BX
	MOVQ  BX, c+32(FP)
	RET
