package keys

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestDeterministicGeneratorRepeatable(t *testing.T) {
	a := NewDeterministicGenerator(42)
	b := NewDeterministicGenerator(42)
	for i := 0; i < 10; i++ {
		ka, kb := a.MustNewKey(), b.MustNewKey()
		if ka != kb {
			t.Fatalf("key %d differs between identically-seeded generators", i)
		}
	}
}

func TestDeterministicGeneratorSeedsDiffer(t *testing.T) {
	a := NewDeterministicGenerator(1).MustNewKey()
	b := NewDeterministicGenerator(2).MustNewKey()
	if a == b {
		t.Fatal("different seeds produced identical first key")
	}
}

func TestGeneratorProducesDistinctNonZeroKeys(t *testing.T) {
	g := NewGenerator()
	seen := make(map[Key]bool)
	for i := 0; i < 100; i++ {
		k := g.MustNewKey()
		if k.Zero() {
			t.Fatal("generated the reserved all-zero key")
		}
		if seen[k] {
			t.Fatal("duplicate key generated")
		}
		seen[k] = true
	}
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	g := NewDeterministicGenerator(7)
	outer, inner := g.MustNewKey(), g.MustNewKey()
	got, err := NewWrapContext(outer).Unwrap(wrapOne(outer, inner))
	if err != nil {
		t.Fatal(err)
	}
	if got != inner {
		t.Fatal("unwrap did not recover the inner key")
	}
}

func TestUnwrapWrongKeyFails(t *testing.T) {
	g := NewDeterministicGenerator(8)
	outer, inner, wrong := g.MustNewKey(), g.MustNewKey(), g.MustNewKey()
	w := wrapOne(outer, inner)
	if _, err := NewWrapContext(wrong).Unwrap(w); !errors.Is(err, ErrBadTag) {
		t.Fatalf("unwrap with wrong key: err=%v, want ErrBadTag", err)
	}
}

func TestUnwrapCorruptionDetected(t *testing.T) {
	g := NewDeterministicGenerator(9)
	outer, inner := g.MustNewKey(), g.MustNewKey()
	ctx := NewWrapContext(outer)
	w := wrapOne(outer, inner)
	for i := 0; i < WrappedSize; i++ {
		c := w
		c[i] ^= 0x80
		if _, err := ctx.Unwrap(c); !errors.Is(err, ErrBadTag) {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
}

func TestWrapDeterministic(t *testing.T) {
	g := NewDeterministicGenerator(10)
	outer, inner := g.MustNewKey(), g.MustNewKey()
	if wrapOne(outer, inner) != wrapOne(outer, inner) {
		t.Fatal("Wrap is not deterministic for fixed keys")
	}
}

func TestQuickWrapUnwrap(t *testing.T) {
	f := func(outer, inner Key) bool {
		got, err := NewWrapContext(outer).Unwrap(wrapOne(outer, inner))
		return err == nil && got == inner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKeyStringDoesNotLeak(t *testing.T) {
	k := NewDeterministicGenerator(11).MustNewKey()
	s := k.String()
	if bytes.Contains([]byte(s), k[:4]) {
		t.Fatal("String appears to contain raw key bytes")
	}
}

func TestSignVerify(t *testing.T) {
	s, err := NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("rekey message 12")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	if err := Verify(s.Public(), []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message verified")
	}
}

// BenchmarkWrapBatch prices one wrap as the batch pipeline pays it:
// every edge its own outer key, 16 edges to a flush.
func BenchmarkWrapBatch(b *testing.B) {
	ks, err := NewDeterministicGenerator(12).NewKeys(2 * hashLanes)
	if err != nil {
		b.Fatal(err)
	}
	outs := make([][WrappedSize]byte, hashLanes)
	b.ReportAllocs()
	var batch WrapBatch
	for i := 0; i < b.N; i++ {
		l := i % hashLanes
		batch.Add(&outs[l], &ks[l], &ks[hashLanes+l])
	}
	batch.Flush()
}

// BenchmarkUnwrap re-keys one context per call, as a member does per
// path edge.
func BenchmarkUnwrap(b *testing.B) {
	g := NewDeterministicGenerator(13)
	outer, inner := g.MustNewKey(), g.MustNewKey()
	ctx := NewWrapContext(outer)
	w := wrapOne(outer, inner)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.SetKey(outer)
		if _, err := ctx.Unwrap(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSign measures the per-rekey-message signing cost, the term
// the key-server capacity analysis amortises via batch rekeying.
func BenchmarkSign(b *testing.B) {
	s, err := NewSigner(1024)
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xab}, 1027)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKeyEqualZeroWipe(t *testing.T) {
	g := NewDeterministicGenerator(7)
	a := g.MustNewKey()
	b := a
	if !a.Equal(b) {
		t.Fatal("identical keys compare unequal")
	}
	b[len(b)-1] ^= 1
	if a.Equal(b) {
		t.Fatal("keys differing in one bit compare equal")
	}
	if a.Zero() {
		t.Fatal("generated key reports Zero")
	}
	a.Wipe()
	if !a.Zero() {
		t.Fatalf("wiped key is not zero: %v", a)
	}
	var z Key
	if !a.Equal(z) {
		t.Fatal("wiped key does not equal the zero key")
	}
}
