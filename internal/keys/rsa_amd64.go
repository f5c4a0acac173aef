//go:build amd64 && !purego

package keys

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha256"
	"math/bits"
)

// cpuHasBMI2ADX reports CPUID.7.0:EBX[8] and [19]: MULX, ADCX and ADOX.
func cpuHasBMI2ADX() bool

// hasRootKernel is fixed at init and never written again: dispatch has
// no mutable state.
var hasRootKernel = cpuHasBMI2ADX()

// addMulRow adds x·y into z over 8·chunks little-endian limbs and
// returns the word carried out of the top limb.
//
//go:noescape
func addMulRow(z, x *uint64, chunks int, y uint64) (c uint64)

// maxRootLimbs is the widest modulus the kernel path takes: 4096 bits.
const maxRootLimbs = 64

// limbs is a little-endian number of up to 4096 bits; a montKey uses
// its first n words.
type limbs [maxRootLimbs]uint64

// montKey is an RSA public key with its Montgomery constants computed
// once, for R = 2^(64n). Everything in it is public.
type montKey struct {
	n     int    // limbs, a multiple of 8
	k     int    // modulus bytes, the signature's length
	mod   limbs  // N
	rr    limbs  // R² mod N
	m0inv uint64 // −N⁻¹ mod 2⁶⁴
}

// init precomputes pub and reports whether the kernel path takes it:
// the CPU has the kernel, e is 65 537, and N is odd, 1024–4096 bits,
// and a multiple of 8 limbs wide. It allocates nothing.
func (m *montKey) init(pub *rsa.PublicKey) bool {
	if !hasRootKernel || pub == nil || pub.N == nil || pub.E != 65537 {
		return false
	}
	bitLen := pub.N.BitLen()
	n := (bitLen + 63) / 64
	if bitLen < 1024 || n > maxRootLimbs || n%8 != 0 || pub.N.Bit(0) == 0 {
		return false
	}
	m.n, m.k = n, (bitLen+7)/8
	for i, w := range pub.N.Bits() {
		m.mod[i] = uint64(w)
	}
	// N is its own inverse mod 8, and each Newton step doubles the
	// number of right bits: 3, 6, 12, 24, 48, 96.
	inv := m.mod[0]
	for range 5 {
		inv *= 2 - m.mod[0]*inv
	}
	m.m0inv = -inv

	// R² as crypto/internal/fips140/bigmod's rr builds it: 2^(bitLen−1)
	// is below N, and doubling it up to 2^(64n) gives R mod N, which is
	// 1 in Montgomery form. n/2 more doublings give 2^(n/2) in Montgomery
	// form, and 7 squarings raise that to 2^(64n) = R: R·R mod N.
	m.rr[n-1] = 1 << ((bitLen - 1) % 64)
	for range 64*n - bitLen + 1 + n/2 {
		m.double(&m.rr)
	}
	var t [2 * maxRootLimbs]uint64
	for range 7 {
		m.mul(&m.rr, &m.rr, &m.rr, &t)
	}
	return true
}

// verify checks sig over root as RFC 8017 §8.2.2 does: s must be k
// bytes and below N, and s^65537 mod N must equal, in all its k bytes,
// the EMSA-PKCS1-v1_5 encoding of SHA-256(root) built here. Nothing of
// s^e is parsed. 18 Montgomery products: s·R² → s·R, 16 squarings to
// s^65536·R, and a product with plain s, which leaves Montgomery form.
// Every operand is public, so nothing needs to run in constant time.
// It allocates nothing.
func (m *montKey) verify(root *MerkleHash, sig []byte) error {
	if len(sig) != m.k {
		return rsa.ErrVerification
	}
	var s, x limbs
	for i, b := range sig {
		j := m.k - 1 - i
		s[j/8] |= uint64(b) << (8 * (j % 8))
	}
	if !m.less(&s) {
		return rsa.ErrVerification
	}
	var t [2 * maxRootLimbs]uint64
	m.mul(&x, &s, &m.rr, &t)
	for range 16 {
		m.mul(&x, &x, &x, &t)
	}
	m.mul(&x, &x, &s, &t)

	var got, want [8 * maxRootLimbs]byte
	for j := range m.k {
		got[m.k-1-j] = byte(x[j/8] >> (8 * (j % 8)))
	}
	encodePKCS1SHA256(want[:m.k], root)
	if !bytes.Equal(got[:m.k], want[:m.k]) {
		return rsa.ErrVerification
	}
	return nil
}

// sha256DigestInfo is the DER prefix of a SHA-256 DigestInfo (RFC 8017
// §9.2, note 1).
var sha256DigestInfo = []byte{0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20}

// encodePKCS1SHA256 writes EMSA-PKCS1-v1_5(SHA-256(root)) into em, all
// of it: 0x00 0x01, 0xff padding, 0x00, the DigestInfo prefix, the
// hash. len(em) is the modulus's byte length, at least 128 here.
func encodePKCS1SHA256(em []byte, root *MerkleHash) {
	h := sha256.Sum256(root[:])
	t := len(em) - len(h) - len(sha256DigestInfo)
	em[0], em[1] = 0x00, 0x01
	for i := 2; i < t-1; i++ {
		em[i] = 0xff
	}
	em[t-1] = 0x00
	copy(em[t:], sha256DigestInfo)
	copy(em[t+len(sha256DigestInfo):], h[:])
}

// mul sets out to a·b·R⁻¹ mod N, for a, b < N; out may be a or b. t
// is scratch. Row i adds a·b[i] into t[i:i+n], then the multiple of N
// that zeroes t[i]; both rows' carries and the last column's overflow
// c land in t[n+i], which no earlier row reached.
func (m *montKey) mul(out, a, b *limbs, t *[2 * maxRootLimbs]uint64) {
	n, chunks := m.n, m.n/8
	clear(t[:2*n])
	var c uint64
	for i := range n {
		c1 := addMulRow(&t[i], &a[0], chunks, b[i])
		c2 := addMulRow(&t[i], &m.mod[0], chunks, t[i]*m.m0inv)
		t[n+i], c = bits.Add64(c1, c2, c)
	}
	m.reduce(out, (*limbs)(t[n:]), c)
}

// double sets x to 2x mod N, for x < N.
func (m *montKey) double(x *limbs) {
	var c uint64
	for i := range m.n {
		x[i], c = x[i]<<1|c, x[i]>>63
	}
	m.reduce(x, x, c)
}

// reduce sets out to x + c·R mod N, for x + c·R below 2N: one
// subtraction at most. out may be x.
func (m *montKey) reduce(out, x *limbs, c uint64) {
	if c == 0 && m.less(x) {
		copy(out[:m.n], x[:m.n])
		return
	}
	var borrow uint64
	for i := range m.n {
		out[i], borrow = bits.Sub64(x[i], m.mod[i], borrow)
	}
}

// less reports whether x < N.
func (m *montKey) less(x *limbs) bool {
	for i := m.n - 1; i >= 0; i-- {
		if x[i] != m.mod[i] {
			return x[i] < m.mod[i]
		}
	}
	return false
}
