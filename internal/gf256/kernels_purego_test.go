//go:build purego

package gf256

import "testing"

// TestPuregoIsGeneric: the purego tag is the only way to force the
// portable kernels, and it must do so whatever the CPU offers.
func TestPuregoIsGeneric(t *testing.T) {
	if KernelName() != "generic" || len(CPUFeatures()) != 0 {
		t.Fatalf("purego build reports kernel %q, features %v", KernelName(), CPUFeatures())
	}
}
