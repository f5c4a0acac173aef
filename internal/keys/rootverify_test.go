package keys

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"math/big"
	"os"
	"sync"
	"testing"
)

// rootKeyNames are the keys under testdata: the four sizes the kernel
// path takes, and a 1024-bit key with e = 5, which it does not.
var rootKeyNames = []string{"1024", "2048", "3072", "4096", "1024-e5"}

// loadRootKeys parses testdata/rsa-<name>.pem once per test binary. The
// keys are kept, not generated: a 4096-bit key takes seconds to make.
var loadRootKeys = sync.OnceValues(func() (map[string]*rsa.PrivateKey, error) {
	ks := make(map[string]*rsa.PrivateKey, len(rootKeyNames))
	for _, name := range rootKeyNames {
		raw, err := os.ReadFile("testdata/rsa-" + name + ".pem")
		if err != nil {
			return nil, err
		}
		block, _ := pem.Decode(raw)
		if block == nil {
			return nil, fmt.Errorf("testdata/rsa-%s.pem: no PEM block", name)
		}
		if ks[name], err = x509.ParsePKCS1PrivateKey(block.Bytes); err != nil {
			return nil, fmt.Errorf("testdata/rsa-%s.pem: %w", name, err)
		}
	}
	return ks, nil
})

func rootTestKey(tb testing.TB, name string) *rsa.PrivateKey {
	tb.Helper()
	ks, err := loadRootKeys()
	if err != nil {
		tb.Fatal(err)
	}
	k, ok := ks[name]
	if !ok {
		tb.Fatalf("no test key %q", name)
	}
	return k
}

// signRoot signs root as Signer.SignRoot does, under priv.
func signRoot(tb testing.TB, priv *rsa.PrivateKey, root MerkleHash) []byte {
	tb.Helper()
	sum := sha256.Sum256(root[:])
	sig, err := rsa.SignPKCS1v15(rand.Reader, priv, crypto.SHA256, sum[:])
	if err != nil {
		tb.Fatal(err)
	}
	return sig
}

// fuzzSignature builds the signature a FuzzRootVerifierMatchesStdlib
// input stands for, on a k-byte modulus N. mode 0 signs root, or with
// mode bit 2 set a different root (the wrong hash), adds N with mode
// bit 3 set (the same residue, unreduced: s ≥ N), and XORs delta into
// the signature's leading bytes, any of delta past k appended (a long
// input); mode 1 is N − delta; mode 2 is delta as a k-byte number;
// mode 3 is delta as is.
func fuzzSignature(tb testing.TB, priv *rsa.PrivateKey, root MerkleHash, mode uint8, delta []byte) []byte {
	k := priv.Size()
	switch mode % 4 {
	case 0:
		signed := root
		if mode&4 != 0 {
			signed[0] ^= 1
		}
		sig := signRoot(tb, priv, signed)
		if mode&8 != 0 {
			s := new(big.Int).Add(new(big.Int).SetBytes(sig), priv.N)
			sig = s.FillBytes(make([]byte, max(k, (s.BitLen()+7)/8)))
		}
		for i, d := range delta {
			if i < k {
				sig[i] ^= d
			} else {
				sig = append(sig, d)
			}
		}
		return sig
	case 1:
		s := new(big.Int).Sub(priv.N, new(big.Int).SetBytes(delta))
		if s.Sign() < 0 {
			return delta
		}
		return s.FillBytes(make([]byte, k))
	case 2:
		if len(delta) > k {
			return delta
		}
		return append(make([]byte, k-len(delta)), delta...)
	}
	return delta
}

// FuzzRootVerifierMatchesStdlib holds a RootVerifier's uncached check
// to crypto/rsa's VerifyPKCS1v15 on the same key, root and signature:
// both accept or both refuse. The keys are 1024, 2048, 3072 and 4096
// bits with e = 65 537, on the kernel path where the CPU has it, and a
// 1024-bit key with e = 5, on the stdlib path everywhere.
func FuzzRootVerifierMatchesStdlib(f *testing.F) {
	for key := range uint8(len(rootKeyNames)) {
		f.Add(key, []byte("interval root"), uint8(0), []byte{})               // valid
		f.Add(key, []byte("interval root"), uint8(4), []byte{})               // wrong hash
		f.Add(key, []byte("root"), uint8(0), []byte{0x80})                    // top bit flipped
		f.Add(key, []byte("root"), uint8(0), make([]byte, 600))               // long: k zero bytes appended
		f.Add(key, []byte("root"), uint8(1), []byte{})                        // s = N
		f.Add(key, []byte("root"), uint8(1), []byte{1})                       // s = N − 1
		f.Add(key, []byte("root"), uint8(2), []byte{})                        // s = 0
		f.Add(key, []byte("root"), uint8(2), []byte{1})                       // s = 1
		f.Add(key, []byte("root"), uint8(3), []byte{1, 2, 3})                 // short
		f.Add(key, []byte("root"), uint8(3), make([]byte, 513))               // long
		f.Add(key, []byte("flip"), uint8(0), append(make([]byte, 100), 0x10)) // middle bit
		f.Add(key, []byte("a"), uint8(8), []byte{})                           // s + N fits k bytes at 1024, 2048, 4096 bits
		f.Add(key, []byte("c"), uint8(8), []byte{})                           // and at 3072
	}
	f.Fuzz(func(t *testing.T, key uint8, rootIn []byte, mode uint8, delta []byte) {
		name := rootKeyNames[int(key)%len(rootKeyNames)]
		priv := rootTestKey(t, name)
		v := NewRootVerifier(&priv.PublicKey)
		if want := hasRootKernel && priv.E == 65537; v.kernel != want {
			t.Fatalf("key %s: kernel path %v, want %v", name, v.kernel, want)
		}
		root := MerkleHash(sha256.Sum256(rootIn))
		sig := fuzzSignature(t, priv, root, mode, delta)
		errStd := VerifyRoot(&priv.PublicKey, root, sig)
		errV := v.verify(&root, sig)
		if (errStd == nil) != (errV == nil) {
			t.Fatalf("key %s, mode %d, %d-byte signature: stdlib %v, verifier %v", name, mode, len(sig), errStd, errV)
		}
		if mode%16 == 0 && len(delta) == 0 && errV != nil {
			t.Fatalf("key %s: valid signature refused: %v", name, errV)
		}
	})
}

// TestRootVerifierSingleBitFlips flips every bit of a valid 1024-bit
// signature in turn: the verifier refuses each, as crypto/rsa does.
func TestRootVerifierSingleBitFlips(t *testing.T) {
	priv := rootTestKey(t, "1024")
	v := NewRootVerifier(&priv.PublicKey)
	root := MerkleHash(sha256.Sum256([]byte("flips")))
	sig := signRoot(t, priv, root)
	if err := v.verify(&root, sig); err != nil {
		t.Fatalf("valid signature refused: %v", err)
	}
	for bit := range 8 * len(sig) {
		sig[bit/8] ^= 1 << (bit % 8)
		if err := v.verify(&root, sig); err == nil {
			t.Fatalf("bit %d flipped: accepted", bit)
		}
		if VerifyRoot(&priv.PublicKey, root, sig) == nil {
			t.Fatalf("bit %d flipped: crypto/rsa accepted", bit)
		}
		sig[bit/8] ^= 1 << (bit % 8)
	}
}

// BenchmarkRootVerify prices one uncached root check, a member's once
// an interval: crypto/rsa, which rebuilds the modulus every call,
// against the kernel on a modulus precomputed by NewRootVerifier.
func BenchmarkRootVerify(b *testing.B) {
	for _, name := range []string{"1024", "2048"} {
		priv := rootTestKey(b, name)
		root := MerkleHash(sha256.Sum256([]byte("interval root")))
		sig := signRoot(b, priv, root)
		v := NewRootVerifier(&priv.PublicKey)
		b.Run("bits="+name+"/stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := VerifyRoot(&priv.PublicKey, root, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("bits="+name+"/adx", func(b *testing.B) {
			if !v.kernel {
				b.Skip("no ADX kernel on this build or CPU")
			}
			b.ReportAllocs()
			for range b.N {
				if err := v.verify(&root, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
