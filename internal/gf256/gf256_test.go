package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatalf("Add(0x53,0xCA) = %#x, want %#x", Add(0x53, 0xCA), 0x53^0xCA)
	}
}

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

func TestDiv(t *testing.T) {
	for a := 0; a < Order; a++ {
		for b := 1; b < Order; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%d,%d)*%d != %d", a, b, b, a)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogExpRoundTrip(t *testing.T) {
	for x := 1; x < Order; x++ {
		if Exp(Log(byte(x))) != byte(x) {
			t.Fatalf("Exp(Log(%d)) != %d", x, x)
		}
	}
}

func TestMulAssociativeCommutativeDistributive(t *testing.T) {
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	dist := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
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

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 3, 250, 251, 252, 253}
	dst := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 7, 255} {
		MulSlice(dst, src, c)
		for i := range src {
			if dst[i] != Mul(src[i], c) {
				t.Fatalf("MulSlice c=%d idx=%d: got %d want %d", c, i, dst[i], Mul(src[i], c))
			}
		}
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

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulSlice(make([]byte, 2), make([]byte, 3), 1)
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := Identity(5)
	inv, ok := id.Invert()
	if !ok {
		t.Fatal("identity reported singular")
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if inv.At(i, j) != want {
				t.Fatalf("inv identity at (%d,%d) = %d", i, j, inv.At(i, j))
			}
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	// A Cauchy matrix is always invertible.
	n := 8
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, Inv(byte(i+n)^byte(j)))
		}
	}
	inv, ok := m.Clone().Invert()
	if !ok {
		t.Fatal("Cauchy matrix reported singular")
	}
	prod := MulMatrix(m, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if prod.At(i, j) != want {
				t.Fatalf("m*inv at (%d,%d) = %d, want %d", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestMatrixSingularDetected(t *testing.T) {
	m := NewMatrix(3, 3)
	// Row 2 = row 0 + row 1 -> singular.
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)
	for j := 0; j < 3; j++ {
		m.Set(2, j, Add(m.At(0, j), m.At(1, j)))
	}
	if _, ok := m.Invert(); ok {
		t.Fatal("singular matrix reported invertible")
	}
}

func TestMulMatrixIdentity(t *testing.T) {
	a := NewMatrix(3, 4)
	for i := range a.Data {
		a.Data[i] = byte(i*37 + 5)
	}
	got := MulMatrix(Identity(3), a)
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("I*a differs at %d", i)
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
