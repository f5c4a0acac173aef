//go:build purego

package keys

import "testing"

// TestPuregoIsGeneric: the purego tag is the only way to force the
// crypto/aes, crypto/sha256 and crypto/rsa paths, and it must do so
// whatever the CPU offers.
func TestPuregoIsGeneric(t *testing.T) {
	if AESKernel() != "generic" {
		t.Fatalf("purego build reports AES kernel %q", AESKernel())
	}
	if SHA256Kernel() != "generic" {
		t.Fatalf("purego build reports SHA-256 kernel %q", SHA256Kernel())
	}
	if RootVerifyKernel() != "stdlib" {
		t.Fatalf("purego build reports root-verify kernel %q", RootVerifyKernel())
	}
}
