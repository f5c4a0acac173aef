package gf256

// Differential tests for the table-driven vector kernel: the nibble
// split-table MulAddSlice must match the scalar reference kernel
// (refMulAddSlice, ref_test.go) byte for byte on every coefficient,
// on lengths around the 8-byte unroll boundary, on large packets, and
// on unaligned sub-slices.

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// kernelLens covers the empty slice, sub-unroll lengths, the 8-byte
// unroll and 16-byte vector boundaries and their neighbours, the wire
// packet size, and a large power-of-two buffer.
var kernelLens = []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 1027, 8192}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestMulAddSliceMatchesRefAllCoefficients(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for _, n := range kernelLens {
		src := randBytes(rng, n)
		init := randBytes(rng, n)
		got := make([]byte, n)
		want := make([]byte, n)
		for c := 0; c < Order; c++ {
			copy(got, init)
			copy(want, init)
			MulAddSlice(got, src, byte(c))
			refMulAddSlice(want, src, byte(c))
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlice(len=%d, c=%d) diverges from reference", n, c)
			}
		}
	}
}

// TestKernelsUnalignedTails slices random windows out of a shared
// buffer so the kernel runs at every offset modulo the unroll width,
// with tails of every residue length.
func TestKernelsUnalignedTails(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	buf := randBytes(rng, 4096)
	acc := randBytes(rng, 4096)
	for trial := 0; trial < 500; trial++ {
		off := rng.IntN(64)
		n := rng.IntN(len(buf) - off)
		c := byte(rng.Uint32())
		src := buf[off : off+n]

		got := append([]byte(nil), acc[off:off+n]...)
		want := append([]byte(nil), acc[off:off+n]...)
		MulAddSlice(got, src, c)
		refMulAddSlice(want, src, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("MulAddSlice off=%d len=%d c=%d diverges", off, n, c)
		}
	}
}

// TestGenericKernelsMatchRef pins the portable nibble-table kernel
// directly: on amd64 the exported entry point dispatches to the SSSE3
// kernel for aligned spans, so without this the generic path would
// only ever see sub-16-byte tails.
func TestGenericKernelsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	for _, n := range kernelLens {
		src := randBytes(rng, n)
		init := randBytes(rng, n)
		got := make([]byte, n)
		want := make([]byte, n)
		for c := 0; c < Order; c++ {
			// The generic kernel is documented correct for every c,
			// including the 0 and 1 the wrapper shortcuts.
			copy(got, init)
			copy(want, init)
			mulAddGeneric(got, src, byte(c))
			refMulAddSlice(want, src, byte(c))
			if !bytes.Equal(got, want) {
				t.Fatalf("mulAddGeneric(len=%d, c=%d) diverges from reference", n, c)
			}
		}
	}
}

// TestMulAddSliceAgainstScalarMul cross-checks the vector kernel
// against the scalar Mul directly, independent of the reference kernel.
func TestMulAddSliceAgainstScalarMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	src := randBytes(rng, 257)
	for c := 0; c < Order; c++ {
		dst := randBytes(rng, len(src))
		want := make([]byte, len(src))
		for i := range src {
			want[i] = dst[i] ^ Mul(src[i], byte(c))
		}
		MulAddSlice(dst, src, byte(c))
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulAddSlice c=%d disagrees with scalar Mul", c)
		}
	}
}

func TestRefKernelLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"refMulAddSlice": func() { refMulAddSlice(make([]byte, 2), make([]byte, 3), 1) },
		"MulAddSlice":    func() { MulAddSlice(make([]byte, 2), make([]byte, 3), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkMulAddSlice measures the fused multiply-accumulate -- the
// inner loop of Reed-Solomon encoding -- for the dispatched kernel
// (SSSE3 on amd64, nibble tables elsewhere) and the scalar reference.
// What the kernel is worth to a rekey interval is
// fec.encode_ms_per_interval in bench/ (bench/README.md).
func BenchmarkMulAddSlice(b *testing.B) {
	for _, n := range []int{64, 1027, 8192} {
		src, dst := make([]byte, n), make([]byte, n)
		for i := range src {
			src[i] = byte(i*31 + 7)
		}
		for _, k := range []struct {
			name string
			fn   func(dst, src []byte, c byte)
		}{{"kernel", MulAddSlice}, {"ref", refMulAddSlice}} {
			b.Run(k.name+"/"+sizeName(n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					k.fn(dst, src, 0x57)
				}
			})
		}
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "64B"
	case 1027:
		return "1027B"
	case 8192:
		return "8KiB"
	}
	return "other"
}
