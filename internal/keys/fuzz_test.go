package keys

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWrapContext drives the wrap/unwrap context against the crypto/aes
// and crypto/hmac reference from fuzzer-chosen key material: the
// wrapped bytes must be identical, both unwrap paths must agree, and a
// flipped bit in the wrapped blob must yield ErrBadTag from both, but
// for the tag collisions a 2-byte tag allows.
func FuzzWrapContext(f *testing.F) {
	f.Add([]byte("outer-seed-material"), []byte("inner-seed"), uint8(0))
	f.Add([]byte{}, []byte{0xff}, uint8(7))
	f.Add(bytes.Repeat([]byte{0x36}, 32), bytes.Repeat([]byte{0x5c}, 32), uint8(17))
	f.Fuzz(func(t *testing.T, outerRaw, innerRaw []byte, flip uint8) {
		var outer, inner Key
		copy(outer[:], outerRaw)
		copy(inner[:], innerRaw)

		ctx := NewWrapContext(outer)
		got := ctx.Wrap(inner)
		want := refWrap(outer, inner)
		if got != want {
			t.Fatalf("WrapContext.Wrap = %x, refWrap = %x", got, want)
		}

		fromCtx, errCtx := ctx.Unwrap(got)
		fromRef, errRef := refUnwrap(outer, got)
		if errCtx != nil || errRef != nil {
			t.Fatalf("round-trip errors: ctx=%v ref=%v", errCtx, errRef)
		}
		if fromCtx != inner || fromRef != inner {
			t.Fatal("round trip did not recover the inner key")
		}

		// Corrupt one bit. A flipped tag bit is always caught; a flipped
		// ciphertext bit slips past the 16-bit tag with probability 2^-16
		// (testdata holds one such input), so there both paths must agree.
		c := got
		pos := int(flip) % WrappedSize
		c[pos] ^= 1 << (flip % 8)
		fromCtx, errCtx = ctx.Unwrap(c)
		fromRef, errRef = refUnwrap(outer, c)
		if pos >= KeySize && !errors.Is(errCtx, ErrBadTag) {
			t.Fatalf("context accepted a corrupted tag: %v", errCtx)
		}
		if (errCtx == nil) != (errRef == nil) || fromCtx != fromRef {
			t.Fatalf("corrupted wrap: context (%v) and reference (%v) disagree", errCtx, errRef)
		}
	})
}
