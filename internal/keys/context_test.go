package keys

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"testing"
	"testing/quick"
)

// TestWrapContextMatchesWrap checks, for many key pairs, that the
// batch's wrap is the crypto/aes and crypto/hmac reference's and that
// one context, re-keyed per pair, unwraps it.
func TestWrapContextMatchesWrap(t *testing.T) {
	g := NewDeterministicGenerator(100)
	ctx := NewWrapContext(Key{})
	for i := 0; i < 200; i++ {
		outer, inner := g.MustNewKey(), g.MustNewKey()
		want := refWrap(outer, inner)
		if got := wrapOne(outer, inner); got != want {
			t.Fatalf("iteration %d: WrapBatch = %x, refWrap = %x", i, got, want)
		}
		ctx.SetKey(outer)
		if k, err := ctx.Unwrap(want); err != nil || k != inner {
			t.Fatalf("iteration %d: re-keyed context Unwrap = %v, %v", i, k, err)
		}
	}
}

// TestWrapContextUnwrapRoundTrip checks context unwrapping of the
// reference's wrap, and its refusal under another key.
func TestWrapContextUnwrapRoundTrip(t *testing.T) {
	g := NewDeterministicGenerator(101)
	for i := 0; i < 100; i++ {
		outer, inner := g.MustNewKey(), g.MustNewKey()
		ctx := NewWrapContext(outer)
		got, err := ctx.Unwrap(refWrap(outer, inner))
		if err != nil {
			t.Fatal(err)
		}
		if got != inner {
			t.Fatal("context unwrap did not recover the inner key")
		}
		if _, err := ctx.Unwrap(wrapOne(g.MustNewKey(), inner)); !errors.Is(err, ErrBadTag) {
			t.Fatalf("unwrap under wrong key: err=%v, want ErrBadTag", err)
		}
	}
}

// TestWrapContextCorruptionDetected mirrors TestUnwrapCorruptionDetected
// with a single-bit flip.
func TestWrapContextCorruptionDetected(t *testing.T) {
	g := NewDeterministicGenerator(102)
	outer, inner := g.MustNewKey(), g.MustNewKey()
	ctx := NewWrapContext(outer)
	w := wrapOne(outer, inner)
	for i := 0; i < WrappedSize; i++ {
		c := w
		c[i] ^= 0x01
		if _, err := ctx.Unwrap(c); !errors.Is(err, ErrBadTag) {
			t.Fatalf("corruption at byte %d undetected by context", i)
		}
	}
}

// TestQuickWrapContext cross-checks the batch's wrap and the context's
// unwrap against the reference over random keys.
func TestQuickWrapContext(t *testing.T) {
	ctx := NewWrapContext(Key{})
	f := func(outer, inner Key) bool {
		w := wrapOne(outer, inner)
		if w != refWrap(outer, inner) {
			return false
		}
		ctx.SetKey(outer)
		a, errA := ctx.Unwrap(w)
		b, errB := refUnwrap(outer, w)
		return errA == nil && errB == nil && a == inner && b == inner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNewKeysMatchesSequentialDraws is the batched-CSPRNG determinism
// contract: NewKeys(n) must consume the stream exactly as n NewKey
// calls do, so the parallel batch pipeline (bulk draws) emits the same
// keys as the sequential reference (per-key draws). It holds for both
// generators -- the seeded splitmix stream and the AES-CTR DRBG, here
// twice from one fixed seed -- at odd and power-of-two sizes, from the
// stream's start and from a position a single draw moved; and NewKeys
// allocates the keys it returns and nothing else.
func TestNewKeysMatchesSequentialDraws(t *testing.T) {
	drbg := func() *Generator {
		block, err := aes.NewCipher(make([]byte, KeySize))
		if err != nil {
			t.Fatal(err)
		}
		return &Generator{r: &ctrDRBG{stream: cipher.NewCTR(block, make([]byte, aes.BlockSize)), remaining: reseedEvery}}
	}
	for name, gen := range map[string]func() *Generator{
		"deterministic": func() *Generator { return NewDeterministicGenerator(7) },
		"drbg":          drbg,
	} {
		for _, n := range []int{1, 2, 7, 31, 32, 33, 64, 65, 1000} {
			for _, skip := range []int{0, 1} {
				a, b := gen(), gen()
				for range skip {
					if a.MustNewKey() != b.MustNewKey() {
						t.Fatalf("%s: the two generators differ", name)
					}
				}
				bulk, err := a.NewKeys(n)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if k := b.MustNewKey(); k != bulk[i] {
						t.Fatalf("%s n=%d skip=%d: bulk key %d differs from sequential draw", name, n, skip, i)
					}
				}
				// The streams must stay aligned after the bulk draw too.
				if a.MustNewKey() != b.MustNewKey() {
					t.Fatalf("%s n=%d skip=%d: stream positions diverged after bulk draw", name, n, skip)
				}
			}
		}
		g := gen()
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := g.NewKeys(100); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("%s: NewKeys(100) made %v allocations, want 1, the keys", name, allocs)
		}
	}
}

// TestNewKeysProduction exercises the AES-CTR DRBG path: distinct
// non-zero keys across bulk draws and across the reseed boundary.
func TestNewKeysProduction(t *testing.T) {
	g := NewGenerator()
	seen := make(map[Key]bool)
	// 3*65536 keys would cross reseeds; keep it quick but cross one
	// refill by drawing more than reseedEvery/KeySize keys in chunks.
	total := reseedEvery/KeySize + 100
	for total > 0 {
		n := 4096
		if n > total {
			n = total
		}
		ks, err := g.NewKeys(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			if k.Zero() {
				t.Fatal("generated the reserved all-zero key")
			}
			if seen[k] {
				t.Fatal("duplicate key generated")
			}
			seen[k] = true
		}
		total -= n
	}
}

// TestNewKeysZeroAndNegative covers the degenerate sizes.
func TestNewKeysZeroAndNegative(t *testing.T) {
	g := NewDeterministicGenerator(9)
	for _, n := range []int{0, -3} {
		ks, err := g.NewKeys(n)
		if err != nil || ks != nil {
			t.Fatalf("NewKeys(%d) = %v, %v; want nil, nil", n, ks, err)
		}
	}
}
