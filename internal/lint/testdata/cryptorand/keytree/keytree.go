// Fixture: loaded under repro/internal/keytree, the injected-only
// package: the key tree must draw every byte of entropy from its
// injected keys.Generator, so even crypto/rand -- fine in internal/keys
// itself -- is a finding here.
package keytree

import (
	crand "crypto/rand" // want "imports crypto/rand directly"
	"math/rand"         // want "key-path package imports math/rand"
)

// PrivateKeyBytes bypasses the injected generator; the import above is
// the finding, independent of how the bytes are used.
func PrivateKeyBytes() []byte {
	b := make([]byte, 16)
	crand.Read(b)
	return b
}

// ShuffledOrder uses math/rand for placement order, which both breaks
// determinism and is banned in key-path packages.
func ShuffledOrder(n int) []int {
	out := rand.Perm(n)
	return out
}
