// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is represented with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by
// L. Rizzo's erasure codec and by most Reed-Solomon implementations.
// Scalar multiplication and division are table-driven via exp/log
// tables built once at package init.
//
// The hot vector kernels (MulSlice, MulAddSlice) additionally use
// split low/high-nibble product tables in the style of Rizzo's codec
// and klauspost/reedsolomon: for a fixed coefficient c,
//
//	c*s = mulTblLo[c][s&0xf] ^ mulTblHi[c][s>>4]
//
// which replaces the per-byte log/exp lookups and the zero-check
// branch with two branch-free lookups into 16-entry tables that stay
// resident in L1. On amd64 the same pair of 16-entry tables drives an
// SSSE3 PSHUFB kernel that performs the two nibble lookups for 16
// bytes per instruction pair. The original scalar log/exp kernels live
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

	// Split product tables for the vector kernels:
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

// Add returns a+b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[logTbl[a]+logTbl[b]]
}

// Exp returns g^e where g is the field generator. The exponent may be
// any integer; it is reduced modulo Order-1 (the order of the
// multiplicative group), so Exp(-1) is the inverse of g and
// Exp(e) == Exp(e+255) for all e.
func Exp(e int) byte {
	e %= Order - 1
	if e < 0 {
		e += Order - 1
	}
	return expTbl[e]
}

// Log returns log_g(x). It panics if x is zero, which has no logarithm.
func Log(x byte) int {
	if x == 0 {
		panic("gf256: log of zero")
	}
	return logTbl[x]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTbl[Order-1-logTbl[a]]
}

// Div returns a/b. It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTbl[logTbl[a]+Order-1-logTbl[b]]
}

// MulSlice sets dst[i] = c*src[i] for all i. dst and src must have the
// same length; they must not overlap unless they are identical slices.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	mulKernel(dst, src, c)
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

// KernelName reports which vector kernel MulSlice and MulAddSlice
// dispatch to: "ssse3" on amd64 CPUs that have it, "generic" otherwise
// and under the purego build tag. Fixed at init.
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

// mulGeneric is the portable nibble-table kernel behind MulSlice: two
// branch-free 16-entry lookups per byte, 8 bytes per iteration.
// Correct for every c (including 0 and 1); the exported wrapper
// special-cases those only as a shortcut.
func mulGeneric(dst, src []byte, c byte) {
	lo, hi := &mulTblLo[c], &mulTblHi[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = lo[s[0]&0xf] ^ hi[s[0]>>4]
		d[1] = lo[s[1]&0xf] ^ hi[s[1]>>4]
		d[2] = lo[s[2]&0xf] ^ hi[s[2]>>4]
		d[3] = lo[s[3]&0xf] ^ hi[s[3]>>4]
		d[4] = lo[s[4]&0xf] ^ hi[s[4]>>4]
		d[5] = lo[s[5]&0xf] ^ hi[s[5]>>4]
		d[6] = lo[s[6]&0xf] ^ hi[s[6]>>4]
		d[7] = lo[s[7]&0xf] ^ hi[s[7]>>4]
	}
	for ; i < len(src); i++ {
		s := src[i]
		dst[i] = lo[s&0xf] ^ hi[s>>4]
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

// Matrix is a dense matrix over GF(2^8) in row-major order.
type Matrix struct {
	Rows, Cols int
	Data       []byte
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("gf256: non-positive matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a slice aliasing row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MulMatrix returns the matrix product a*b.
func MulMatrix(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("gf256: matrix dimension mismatch")
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av != 0 {
				MulAddSlice(orow, b.Row(k), av)
			}
		}
	}
	return out
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination, or ok=false if the matrix is singular. It eliminates in
// place: the receiver is consumed, and a caller that needs it after
// inverts a Clone.
func (m *Matrix) Invert() (inv *Matrix, ok bool) {
	if m.Rows != m.Cols {
		panic("gf256: Invert on non-square matrix")
	}
	n := m.Rows
	inv = Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		if pivot != col {
			swapRows(m, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row so the pivot element is 1.
		if p := m.At(col, col); p != 1 {
			pi := Inv(p)
			MulSlice(m.Row(col), m.Row(col), pi)
			MulSlice(inv.Row(col), inv.Row(col), pi)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := m.At(r, col); f != 0 {
				MulAddSlice(m.Row(r), m.Row(col), f)
				MulAddSlice(inv.Row(r), inv.Row(col), f)
			}
		}
	}
	return inv, true
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
