// Package gf256 implements the GF(2^8) arithmetic the erasure code
// needs: scalar multiplication and inversion, and one vector kernel,
// the fused multiply-accumulate MulAddSlice.
//
// The field is represented with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by
// L. Rizzo's erasure codec and by most Reed-Solomon implementations.
// Scalar multiplication and inversion are table-driven via exp/log
// tables built once at package init.
//
// MulAddSlice additionally uses split low/high-nibble product tables
// in the style of Rizzo's codec and klauspost/reedsolomon: for a fixed
// coefficient c,
//
//	c*s = mulTblLo[c][s&0xf] ^ mulTblHi[c][s>>4]
//
// which replaces the per-byte log/exp lookups and the zero-check
// branch with two branch-free lookups into 16-entry tables that stay
// resident in L1. On amd64 the same pair of 16-entry tables drives an
// SSSE3 PSHUFB kernel that performs the two nibble lookups for 16
// bytes per instruction pair. The original scalar log/exp kernel lives
// on in the package's tests, as the reference the differential tests
// and the kernel fuzzer compare every path against.
package gf256

// Order is the number of elements in GF(2^8).
const Order = 256

// poly is the primitive polynomial used to generate the field,
// x^8+x^4+x^3+x^2+1, written with the implicit x^8 term as bit 8.
const poly = 0x11d

var (
	expTbl [2 * Order]byte // expTbl[i] = g^i, doubled to avoid a mod in Mul
	logTbl [Order]int      // logTbl[x] = log_g(x); logTbl[0] is unused

	// Split product tables for the vector kernel:
	// mulTblLo[c][n] = c*n and mulTblHi[c][n] = c*(n<<4), so
	// c*s = mulTblLo[c][s&0xf] ^ mulTblHi[c][s>>4] by distributivity.
	// 16-entry rows let the compiler drop bounds checks on nibble
	// indices; the pair of rows for one coefficient is 32 bytes.
	mulTblLo [Order][16]byte
	mulTblHi [Order][16]byte
)

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTbl[i] = byte(x)
		logTbl[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	// Duplicate the table so Mul can index log(a)+log(b) directly.
	for i := Order - 1; i < 2*Order; i++ {
		expTbl[i] = expTbl[i-(Order-1)]
	}
	for c := 0; c < Order; c++ {
		for n := 0; n < 16; n++ {
			mulTblLo[c][n] = Mul(byte(c), byte(n))
			mulTblHi[c][n] = Mul(byte(c), byte(n<<4))
		}
	}
}

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[logTbl[a]+logTbl[b]]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTbl[Order-1-logTbl[a]]
}

// MulAddSlice sets dst[i] ^= c*src[i] for all i: a fused
// multiply-accumulate, the inner loop of Reed-Solomon encoding.
// dst and src must have the same length; they must not overlap unless
// they are identical slices.
func MulAddSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		xorSlice(dst, src)
		return
	}
	mulAddKernel(dst, src, c)
}

// KernelName reports which vector kernel MulAddSlice dispatches to:
// "ssse3" on amd64 CPUs that have it, "generic" otherwise and under the
// purego build tag. Fixed at init.
func KernelName() string { return kernelName() }

// CPUFeatures lists the probed SIMD capabilities this package uses
// ("ssse3"); empty on machines or builds with none.
func CPUFeatures() []string { return cpuFeatureNames() }

// xorSlice sets dst[i] ^= src[i]: the c==1 accumulate path.
func xorSlice(dst, src []byte) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= s[0]
		d[1] ^= s[1]
		d[2] ^= s[2]
		d[3] ^= s[3]
		d[4] ^= s[4]
		d[5] ^= s[5]
		d[6] ^= s[6]
		d[7] ^= s[7]
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// mulAddGeneric is the portable nibble-table kernel behind
// MulAddSlice. Correct for every c.
func mulAddGeneric(dst, src []byte, c byte) {
	lo, hi := &mulTblLo[c], &mulTblHi[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= lo[s[0]&0xf] ^ hi[s[0]>>4]
		d[1] ^= lo[s[1]&0xf] ^ hi[s[1]>>4]
		d[2] ^= lo[s[2]&0xf] ^ hi[s[2]>>4]
		d[3] ^= lo[s[3]&0xf] ^ hi[s[3]>>4]
		d[4] ^= lo[s[4]&0xf] ^ hi[s[4]>>4]
		d[5] ^= lo[s[5]&0xf] ^ hi[s[5]>>4]
		d[6] ^= lo[s[6]&0xf] ^ hi[s[6]>>4]
		d[7] ^= lo[s[7]&0xf] ^ hi[s[7]>>4]
	}
	for ; i < len(src); i++ {
		s := src[i]
		dst[i] ^= lo[s&0xf] ^ hi[s>>4]
	}
}
