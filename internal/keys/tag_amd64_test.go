//go:build amd64 && !purego

package keys

import (
	"os"
	"strings"
	"testing"
)

// TestTagKernelMatchesCPUID pins the tag kernel's dispatch rule: the
// AVX-512 kernel runs exactly when CPUID reports AVX512F and the OS
// enables its state. Where the kernel's flag list is readable, it must
// agree too: Linux lists avx512f only when both hold.
func TestTagKernelMatchesCPUID(t *testing.T) {
	want := "generic"
	if cpuHasAVX512F() {
		want = "avx512"
	}
	if got := TagKernel(); got != want {
		t.Fatalf("TagKernel() = %q with CPUID AVX512F = %v, want %q", got, cpuHasAVX512F(), want)
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
