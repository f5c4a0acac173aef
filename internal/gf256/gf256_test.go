package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulIdentityAndZero(t *testing.T) {
	for x := 0; x < Order; x++ {
		b := byte(x)
		if Mul(b, 1) != b {
			t.Fatalf("Mul(%d,1) = %d, want %d", b, Mul(b, 1), b)
		}
		if Mul(b, 0) != 0 {
			t.Fatalf("Mul(%d,0) = %d, want 0", b, Mul(b, 0))
		}
	}
}

func TestMulMatchesSchoolbook(t *testing.T) {
	// Carry-less multiplication reduced by the field polynomial.
	slow := func(a, b byte) byte {
		var p uint16
		av, bv := uint16(a), uint16(b)
		for i := 0; i < 8; i++ {
			if bv&1 != 0 {
				p ^= av
			}
			bv >>= 1
			av <<= 1
			if av&0x100 != 0 {
				av ^= poly
			}
		}
		return byte(p)
	}
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			got, want := Mul(byte(a), byte(b)), slow(byte(a), byte(b))
			if got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestInvRoundTrip(t *testing.T) {
	for x := 1; x < Order; x++ {
		b := byte(x)
		if Mul(b, Inv(b)) != 1 {
			t.Fatalf("x*Inv(x) != 1 for x=%d", x)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestMulAssociativeCommutativeDistributive(t *testing.T) {
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	dist := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	if err := quick.Check(dist, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{9, 8, 7, 6, 5}
	dst := []byte{1, 2, 3, 4, 5}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = dst[i] ^ Mul(src[i], 0x1d)
	}
	MulAddSlice(dst, src, 0x1d)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulAddSlice idx=%d: got %d want %d", i, dst[i], want[i])
		}
	}
}

func BenchmarkMulAddSlice1K(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(dst, src, 0x57)
	}
}
