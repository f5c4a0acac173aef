//go:build amd64 && !purego

package keys

import (
	"math/bits"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

// TestRootVerifyKernelMatchesCPUID pins the one dispatch rule: the ADX
// row kernel runs exactly when CPUID reports BMI2 and ADX. Where the
// kernel's flag list is readable, it must agree with CPUID too.
// aes128_purego_test.go pins the portable build to "stdlib".
func TestRootVerifyKernelMatchesCPUID(t *testing.T) {
	want := "stdlib"
	if cpuHasBMI2ADX() {
		want = "adx"
	}
	if got := RootVerifyKernel(); got != want {
		t.Fatalf("RootVerifyKernel() = %q with CPUID BMI2+ADX = %v, want %q", got, cpuHasBMI2ADX(), want)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check CPUID against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed := strings.Contains(flags+" ", " bmi2 ") && strings.Contains(flags+" ", " adx ")
			if listed != cpuHasBMI2ADX() {
				t.Fatalf("/proc/cpuinfo lists bmi2 and adx = %v, CPUID = %v", listed, cpuHasBMI2ADX())
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// refAddMulRow is addMulRow one math/bits limb at a time.
func refAddMulRow(z, x []uint64, y uint64) uint64 {
	var c uint64
	for i := range x {
		hi, lo := bits.Mul64(x[i], y)
		var cc uint64
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		z[i], cc = bits.Add64(z[i], lo, 0)
		c = hi + cc
	}
	return c
}

// TestAddMulRowMatchesRef holds the kernel to the reference at every
// row width the verifier uses, on random limbs and on all-ones limbs,
// where every carry of both chains is set. It leaves the limb past the
// row alone.
func TestAddMulRowMatchesRef(t *testing.T) {
	if !hasRootKernel {
		t.Skip("no BMI2/ADX on this CPU")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for chunks := 1; chunks <= maxRootLimbs/8; chunks++ {
		n := 8 * chunks
		for trial := range 50 {
			x, z := make([]uint64, n), make([]uint64, n+1)
			y := ^uint64(0)
			for i := range x {
				x[i], z[i] = ^uint64(0), ^uint64(0)
				if trial > 0 {
					x[i], z[i] = rng.Uint64(), rng.Uint64()
				}
			}
			if trial > 0 {
				y = rng.Uint64()
			}
			z[n] = 0x5a5a
			want := append([]uint64(nil), z...)
			wc := refAddMulRow(want[:n], x, y)
			if c := addMulRow(&z[0], &x[0], chunks, y); c != wc {
				t.Fatalf("%d limbs, trial %d: carry %#x, want %#x", n, trial, c, wc)
			}
			for i := range z {
				if z[i] != want[i] {
					t.Fatalf("%d limbs, trial %d: limb %d = %#x, want %#x", n, trial, i, z[i], want[i])
				}
			}
		}
	}
}
