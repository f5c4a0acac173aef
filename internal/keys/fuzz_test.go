package keys

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWrapBatch wraps a batch of 1 to 16 lanes derived from
// fuzzer-chosen key material and checks every lane against the
// crypto/aes and crypto/hmac reference. Lane 0 carries the fuzzer's
// keys as given; lane i XORs i into byte i of both. Lane 0 then round-
// trips through WrapContext and the reference, and a flipped bit in it
// must yield ErrBadTag from both, but for the tag collisions a 2-byte
// tag allows.
func FuzzWrapBatch(f *testing.F) {
	f.Add([]byte("outer-seed-material"), []byte("inner-seed"), uint8(0))
	f.Add([]byte{}, []byte{0xff}, uint8(7))
	f.Add(bytes.Repeat([]byte{0x36}, 32), bytes.Repeat([]byte{0x5c}, 32), uint8(17))
	f.Fuzz(func(t *testing.T, outerRaw, innerRaw []byte, flip uint8) {
		var outers, inners [hashLanes]Key
		var outs [hashLanes][WrappedSize]byte
		n := 1 + int(flip)%hashLanes
		var b WrapBatch
		for i := range n {
			copy(outers[i][:], outerRaw)
			copy(inners[i][:], innerRaw)
			outers[i][i] ^= byte(i)
			inners[i][i] ^= byte(i)
			b.Add(&outs[i], &outers[i], &inners[i])
		}
		b.Flush()
		for i := range n {
			if want := refWrap(outers[i], inners[i]); outs[i] != want {
				t.Fatalf("lane %d of %d: WrapBatch = %x, refWrap = %x", i, n, outs[i], want)
			}
		}

		outer, got := outers[0], outs[0]
		ctx := NewWrapContext(outer)
		fromCtx, errCtx := ctx.Unwrap(got)
		fromRef, errRef := refUnwrap(outer, got)
		if errCtx != nil || errRef != nil {
			t.Fatalf("round-trip errors: ctx=%v ref=%v", errCtx, errRef)
		}
		if fromCtx != inners[0] || fromRef != inners[0] {
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
