package keys

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"testing"
)

// BenchmarkSignatureSchemes prices the interval root signature under
// the two stdlib schemes a signed rekey message could carry: RSA-2048
// PKCS#1 v1.5 over SHA-256, as Signer does, and Ed25519. The server
// signs once an interval and every member verifies once, so the verify
// rows are the group-wide cost: "verify" is crypto/rsa's, and
// "verify-RootVerifier" the uncached check a member runs, on the
// precomputed kernel where RootVerifyKernel says "adx". Keys are made
// outside the timer.
func BenchmarkSignatureSchemes(b *testing.B) {
	root := MerkleHash(sha256.Sum256([]byte("interval root")))
	signer, err := NewSigner(2048)
	if err != nil {
		b.Fatal(err)
	}
	rsaSig, err := signer.SignRoot(root)
	if err != nil {
		b.Fatal(err)
	}
	edPub, edPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	edSig := ed25519.Sign(edPriv, root[:])
	v := NewRootVerifier(signer.Public())

	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"RSA-2048/sign", func() error { _, err := signer.SignRoot(root); return err }},
		{"RSA-2048/verify", func() error { return VerifyRoot(signer.Public(), root, rsaSig) }},
		{"RSA-2048/verify-RootVerifier", func() error { return v.verify(&root, rsaSig) }},
		{"Ed25519/sign", func() error { ed25519.Sign(edPriv, root[:]); return nil }},
		{"Ed25519/verify", func() error {
			if !ed25519.Verify(edPub, root[:], edSig) {
				return errors.New("ed25519 signature rejected")
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
