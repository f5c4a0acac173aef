package keys

// The AES-128 paths against crypto/aes, in one `go test`: the
// dispatched encryptBlock/decryptBlock (the AES-NI kernel on amd64 CPUs
// that have it, crypto/aes otherwise and under -tags purego) and the
// portable path called directly. Dispatch is fixed at init, so the
// portable path is reached by calling it, not by switching a global.
//
// refWrap and refUnwrap are the wrap format written out with crypto/aes
// and crypto/hmac: the reference every wrap and unwrap test compares
// with.

import (
	"bytes"
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func refWrap(outer, inner Key) [WrappedSize]byte {
	var out [WrappedSize]byte
	block, err := aes.NewCipher(outer[:])
	if err != nil {
		panic(err)
	}
	block.Encrypt(out[:KeySize], inner[:])
	mac := hmac.New(sha256.New, outer[:])
	mac.Write(out[:KeySize])
	copy(out[KeySize:], mac.Sum(nil)[:TagSize])
	return out
}

func refUnwrap(outer Key, wrapped [WrappedSize]byte) (Key, error) {
	mac := hmac.New(sha256.New, outer[:])
	mac.Write(wrapped[:KeySize])
	if !hmac.Equal(mac.Sum(nil)[:TagSize], wrapped[KeySize:]) {
		return Key{}, ErrBadTag
	}
	block, err := aes.NewCipher(outer[:])
	if err != nil {
		panic(err)
	}
	var k Key
	block.Decrypt(k[:], wrapped[:KeySize])
	return k, nil
}

type aesPath struct {
	name     string
	enc, dec func(key *Key, dst, src *[KeySize]byte)
}

// aesPaths lists the dispatched path under its AESKernel name and,
// where that is not already the portable one, the portable path on its
// own.
func aesPaths() []aesPath {
	paths := []aesPath{{AESKernel(), encryptBlock, decryptBlock}}
	if hasAES {
		paths = append(paths, aesPath{"generic", encryptBlockGeneric, decryptBlockGeneric})
	}
	return paths
}

func mustHex(t testing.TB, s string) (b [KeySize]byte) {
	t.Helper()
	n, err := hex.Decode(b[:], []byte(s))
	if err != nil || n != KeySize {
		t.Fatalf("bad hex %q", s)
	}
	return b
}

// TestAES128KnownAnswer is FIPS-197 Appendix C.1, both directions, on
// every path.
func TestAES128KnownAnswer(t *testing.T) {
	key := Key(mustHex(t, "000102030405060708090a0b0c0d0e0f"))
	plain := mustHex(t, "00112233445566778899aabbccddeeff")
	cipher := mustHex(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	for _, p := range aesPaths() {
		var got [KeySize]byte
		if p.enc(&key, &got, &plain); got != cipher {
			t.Errorf("%s encrypt = %x, want %x", p.name, got, cipher)
		}
		if p.dec(&key, &got, &cipher); got != plain {
			t.Errorf("%s decrypt = %x, want %x", p.name, got, plain)
		}
	}
}

// FuzzAES128MatchesStdlib encrypts and decrypts fuzzer-chosen blocks
// under fuzzer-chosen keys on every path, demanding crypto/aes's bytes.
func FuzzAES128MatchesStdlib(f *testing.F) {
	fipsKey, fipsPlain := mustHex(f, "000102030405060708090a0b0c0d0e0f"), mustHex(f, "00112233445566778899aabbccddeeff")
	f.Add(fipsKey[:], fipsPlain[:])
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, KeySize), bytes.Repeat([]byte{0x80}, KeySize))
	f.Add([]byte("outer-seed-material"), []byte("inner-seed"))
	paths := aesPaths()
	f.Fuzz(func(t *testing.T, keyRaw, srcRaw []byte) {
		var key Key
		var src, wantEnc, wantDec, got [KeySize]byte
		copy(key[:], keyRaw)
		copy(src[:], srcRaw)
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		block.Encrypt(wantEnc[:], src[:])
		block.Decrypt(wantDec[:], src[:])
		for _, p := range paths {
			if p.enc(&key, &got, &src); got != wantEnc {
				t.Fatalf("%s encrypt(%x, %x) = %x, crypto/aes %x", p.name, key[:], src, got, wantEnc)
			}
			if p.dec(&key, &got, &src); got != wantDec {
				t.Fatalf("%s decrypt(%x, %x) = %x, crypto/aes %x", p.name, key[:], src, got, wantDec)
			}
		}
	})
}

// BenchmarkAES128 prices one block from a raw key on each path: the
// kernel's in-register key expansion against crypto/aes's schedule.
func BenchmarkAES128(b *testing.B) {
	g := NewDeterministicGenerator(14)
	key, src := g.MustNewKey(), [KeySize]byte(g.MustNewKey())
	var dst [KeySize]byte
	for _, p := range aesPaths() {
		for _, dir := range []struct {
			name string
			fn   func(key *Key, dst, src *[KeySize]byte)
		}{{"encrypt", p.enc}, {"decrypt", p.dec}} {
			b.Run(p.name+"/"+dir.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dir.fn(&key, &dst, &src)
				}
			})
		}
	}
}
