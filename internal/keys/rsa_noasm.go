//go:build !amd64 || purego

package keys

import "crypto/rsa"

const hasRootKernel = false

// montKey holds nothing where the kernel cannot run: no key takes the
// kernel path, and every verifier calls crypto/rsa.
type montKey struct{}

func (*montKey) init(*rsa.PublicKey) bool { return false }

func (*montKey) verify(*MerkleHash, []byte) error {
	panic("keys: root-verify kernel called on a build without it")
}
