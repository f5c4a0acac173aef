//go:build amd64 && !purego

package keys

import (
	"os"
	"strings"
	"testing"
)

// TestSHA256KernelMatchesCPUID pins the 16-lane kernels' dispatch rule:
// the AVX-512 kernels run exactly when CPUID reports AVX512F and the OS
// enables its state. Where the kernel's flag list is readable, it must
// agree too: Linux lists avx512f only when both hold.
func TestSHA256KernelMatchesCPUID(t *testing.T) {
	want := "generic"
	if cpuHasAVX512F() {
		want = "avx512"
	}
	if got := SHA256Kernel(); got != want {
		t.Fatalf("SHA256Kernel() = %q with CPUID AVX512F = %v, want %q", got, cpuHasAVX512F(), want)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check CPUID against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed := strings.Contains(flags+" ", " avx512f ")
			if listed != cpuHasAVX512F() {
				t.Fatalf("/proc/cpuinfo lists avx512f = %v, CPUID AVX512F = %v", listed, cpuHasAVX512F())
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// kernelPaths is the Merkle kernel on its own, for any lane count.
func kernelPaths() []hashPath { return []hashPath{{"avx512", hashStagedAVX512}} }
