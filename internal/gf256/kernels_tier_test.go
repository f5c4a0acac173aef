package gf256

// Both kernel paths against the scalar reference, in one `go test`:
// the dispatched MulAddSlice (SSSE3 on amd64, the portable kernel under
// -tags purego) and mulAddGeneric called directly. Dispatch is fixed at
// init, so the portable path is reached by calling it, not by switching
// a global.

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

type kernelPath struct {
	name   string
	mulAdd func(dst, src []byte, c byte)
}

// kernelPaths lists the dispatched path under its KernelName and, where
// that is not already the portable one, the portable kernel on its
// own. mulAddGeneric is documented correct for every c, including the
// 0 and 1 that MulAddSlice shortcuts.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{KernelName(), MulAddSlice}}
	if KernelName() != "generic" {
		paths = append(paths, kernelPath{"generic", mulAddGeneric})
	}
	return paths
}

func forEachKernel(t *testing.T, fn func(t *testing.T, p kernelPath)) {
	t.Helper()
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) { fn(t, p) })
	}
}

func TestAllKernelTiersMatchRefAllCoefficients(t *testing.T) {
	forEachKernel(t, func(t *testing.T, p kernelPath) {
		rng := rand.New(rand.NewPCG(11, 11))
		for _, n := range kernelLens {
			src := randBytes(rng, n)
			init := randBytes(rng, n)
			got := make([]byte, n)
			want := make([]byte, n)
			for c := 0; c < Order; c++ {
				copy(got, init)
				copy(want, init)
				p.mulAdd(got, src, byte(c))
				refMulAddSlice(want, src, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s mulAdd(len=%d, c=%d) diverges from reference", p.name, n, c)
				}
			}
		}
	})
}

func TestAllKernelTiersUnalignedTails(t *testing.T) {
	forEachKernel(t, func(t *testing.T, p kernelPath) {
		rng := rand.New(rand.NewPCG(12, 12))
		buf := randBytes(rng, 4096)
		acc := randBytes(rng, 4096)
		for trial := 0; trial < 300; trial++ {
			off := rng.IntN(64)
			n := rng.IntN(len(buf) - off)
			c := byte(rng.Uint32())
			src := buf[off : off+n]

			got := append([]byte(nil), acc[off:off+n]...)
			want := append([]byte(nil), acc[off:off+n]...)
			p.mulAdd(got, src, c)
			refMulAddSlice(want, src, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s mulAdd off=%d len=%d c=%d diverges", p.name, off, n, c)
			}
		}
	})
}

// TestKernelNameMatchesCPUFeatures pins the one dispatch rule: the
// SSSE3 kernels run exactly when the CPU reports SSSE3.
// kernels_purego_test.go pins the portable build to "generic".
func TestKernelNameMatchesCPUFeatures(t *testing.T) {
	want := "generic"
	if slices.Contains(CPUFeatures(), "ssse3") {
		want = "ssse3"
	}
	if got := KernelName(); got != want {
		t.Fatalf("KernelName() = %q with CPUFeatures() = %v, want %q", got, CPUFeatures(), want)
	}
}

// FuzzKernelPathsMatchRef drives both kernel paths over the same
// fuzz-chosen span and accumulator, demanding byte-identity with the
// scalar reference.
func FuzzKernelPathsMatchRef(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, byte(0x57), uint8(3))
	f.Add(bytes.Repeat([]byte{0xaa}, 100), byte(0xff), uint8(17))
	f.Add([]byte{}, byte(0), uint8(0))
	paths := kernelPaths()
	f.Fuzz(func(t *testing.T, src []byte, c byte, off uint8) {
		o := int(off)
		if o > len(src) {
			o = len(src)
		}
		span := src[o:]
		want := append([]byte(nil), src[:len(span)]...)
		refMulAddSlice(want, span, c)
		got := make([]byte, len(span))
		for _, p := range paths {
			copy(got, src[:len(span)])
			p.mulAdd(got, span, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s mulAdd diverges (len=%d c=%d)", p.name, len(span), c)
			}
		}
	})
}

// BenchmarkMulAddSliceKernel reports throughput of each kernel path.
func BenchmarkMulAddSliceKernel(b *testing.B) {
	for _, p := range kernelPaths() {
		for _, n := range []int{1027, 8192} {
			b.Run(p.name+"/"+sizeName(n), func(b *testing.B) {
				src, dst := make([]byte, n), make([]byte, n)
				for i := range src {
					src[i] = byte(i)
				}
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.mulAdd(dst, src, 0x57)
				}
			})
		}
	}
}
