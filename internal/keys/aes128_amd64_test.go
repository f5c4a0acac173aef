//go:build amd64 && !purego

package keys

import (
	"os"
	"strings"
	"testing"
)

// TestAESKernelMatchesCPUID pins the one dispatch rule: the AES-NI
// kernel runs exactly when CPUID reports AES. Where the kernel's flag
// list is readable, it must agree with CPUID too.
// aes128_purego_test.go pins the portable build to "generic".
func TestAESKernelMatchesCPUID(t *testing.T) {
	want := "generic"
	if cpuHasAES() {
		want = "aesni"
	}
	if got := AESKernel(); got != want {
		t.Fatalf("AESKernel() = %q with CPUID AES = %v, want %q", got, cpuHasAES(), want)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check CPUID against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed := strings.Contains(flags+" ", " aes ")
			if listed != cpuHasAES() {
				t.Fatalf("/proc/cpuinfo lists aes = %v, CPUID AES = %v", listed, cpuHasAES())
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
