// Package keys provides the cryptographic material used by the group
// key management system: 128-bit symmetric keys, the key-wrapping
// operation {k'}_k that produces the "encryptions" carried in rekey
// messages, and the digital signature the key server applies once per
// rekey message.
//
// The wrap format is a single AES-128 block (the wrapped key) followed
// by a 2-byte truncated HMAC-SHA256 tag, 18 bytes total. Together with
// the 4-byte key ID this gives the 22-byte encryption entry assumed by
// the packet format, which fits 46 encryptions in a 1027-byte ENC packet
// -- the constant the paper uses when bounding duplication overhead.
package keys

import (
	"bytes"
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// KeySize is the size in bytes of every group, auxiliary, and individual
// key managed by the system.
const KeySize = 16

// TagSize is the size of the truncated integrity tag appended to each
// wrapped key.
const TagSize = 2

// WrappedSize is the size of one wrapped key: ciphertext plus tag.
const WrappedSize = KeySize + TagSize

// Key is a 128-bit symmetric key.
type Key [KeySize]byte

// Zero reports whether the key is the all-zero value, which the system
// never generates and treats as "no key". The check is constant-time:
// even a presence test on key bytes must not leak how many leading
// bytes are zero.
func (k Key) Zero() bool {
	var zero Key
	return subtle.ConstantTimeCompare(k[:], zero[:]) == 1
}

// Equal reports whether two keys hold the same bytes, in constant
// time. Use this (never ==, which short-circuits on the first
// differing word) wherever a comparison involves live key material.
func (k Key) Equal(other Key) bool {
	return subtle.ConstantTimeCompare(k[:], other[:]) == 1
}

// Wipe zeroes the key bytes in place, for retiring interval keys and
// scratch copies. The function is marked noinline so the stores
// target memory the compiler must treat as escaping through the
// receiver pointer; inlined into a caller whose key is about to die,
// dead-store elimination could otherwise delete the wipe.
//
//go:noinline
func (k *Key) Wipe() {
	for i := range k {
		k[i] = 0
	}
}

// String renders a short fingerprint, not the key bytes, so keys can be
// logged without disclosure.
//
//rekeylint:declassify SHA-256 fingerprint; preimage-resistant, key bytes never rendered
func (k Key) String() string {
	sum := sha256.Sum256(k[:])
	return fmt.Sprintf("key(%x)", sum[:4])
}

// Generator produces fresh keys. The zero value is not usable; use
// NewGenerator or NewDeterministicGenerator. A Generator is not safe
// for concurrent use; the key server serialises batches around it.
type Generator struct {
	r io.Reader
}

// NewGenerator returns a Generator backed by an AES-CTR DRBG that is
// seeded (and periodically reseeded) from crypto/rand. Batch rekeying
// draws O(L*log N) keys per interval; pulling each 16-byte key from
// crypto/rand individually prices every draw at a system call, while
// the DRBG amortises the entropy read over a megabyte of output.
func NewGenerator() *Generator { return &Generator{r: &ctrDRBG{}} }

// ctrDRBG is a deterministic random bit generator: an AES-128-CTR
// keystream whose key and IV come from crypto/rand, reseeded after
// reseedEvery bytes of output so no single keystream runs long. Read
// never fails once a seed has been obtained; seeding errors surface
// through NewKey's error return.
type ctrDRBG struct {
	stream    cipher.Stream
	remaining int
}

// reseedEvery is how much DRBG output one (key, IV) seed may produce
// before a fresh seed is drawn: 1 MiB, or 65536 keys.
const reseedEvery = 1 << 20

func (d *ctrDRBG) reseed() error {
	var seed [aes.BlockSize + KeySize]byte
	if _, err := io.ReadFull(rand.Reader, seed[:]); err != nil {
		return fmt.Errorf("keys: reseeding DRBG: %w", err)
	}
	block, err := aes.NewCipher(seed[:KeySize])
	if err != nil {
		return err
	}
	d.stream = cipher.NewCTR(block, seed[KeySize:])
	d.remaining = reseedEvery
	return nil
}

func (d *ctrDRBG) Read(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if d.remaining == 0 {
			if err := d.reseed(); err != nil {
				return total - len(p), err
			}
		}
		n := len(p)
		if n > d.remaining {
			n = d.remaining
		}
		// CTR keystream: XOR into zeroed output.
		chunk := p[:n]
		for i := range chunk {
			chunk[i] = 0
		}
		d.stream.XORKeyStream(chunk, chunk)
		d.remaining -= n
		p = p[n:]
	}
	return total, nil
}

// NewDeterministicGenerator returns a Generator whose output is a
// reproducible function of seed. Experiments and tests use it so runs
// are repeatable; production servers use NewGenerator.
func NewDeterministicGenerator(seed uint64) *Generator {
	return &Generator{r: &detReader{state: seed ^ 0x9e3779b97f4a7c15}}
}

// detReader is a splitmix64-based stream, adequate for repeatable tests
// (not for production key material).
type detReader struct {
	state uint64
	buf   [8]byte
	n     int
}

func (d *detReader) next() uint64 {
	d.state += 0x9e3779b97f4a7c15
	z := d.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (d *detReader) Read(p []byte) (int, error) {
	i := 0
	// Bulk path for word-aligned stream positions: NewKeys draws
	// megabytes through here, and the byte stream must stay identical
	// to the byte-at-a-time path below.
	if d.n == 0 {
		for ; i+8 <= len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], d.next())
		}
	}
	for ; i < len(p); i++ {
		if d.n == 0 {
			binary.LittleEndian.PutUint64(d.buf[:], d.next())
			d.n = 8
		}
		p[i] = d.buf[8-d.n]
		d.n--
	}
	return len(p), nil
}

// NewKey returns a fresh key.
func (g *Generator) NewKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(g.r, k[:]); err != nil {
		return Key{}, fmt.Errorf("keys: generating key: %w", err)
	}
	if k.Zero() {
		k[0] = 1 // the all-zero key is reserved
	}
	return k, nil
}

// MustNewKey is NewKey for contexts (tests, deterministic experiments)
// where generation cannot fail.
func (g *Generator) MustNewKey() Key {
	k, err := g.NewKey()
	if err != nil {
		panic(err)
	}
	return k
}

// NewKeys returns n fresh keys drawn in one bulk read from the
// underlying stream. The keys are exactly the ones n successive NewKey
// calls would return (batch rekeying relies on this to stay
// byte-identical to the sequential reference path), but the stream is
// consumed in a single ReadFull instead of n small reads. The read goes
// straight into the returned keys, so the call allocates them and
// nothing else, and leaves no copy of the key bytes behind: a buffer
// handed to the stream's io.Reader escapes to the heap, even one
// declared on the stack.
func (g *Generator) NewKeys(n int) ([]Key, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]Key, n)
	if _, err := io.ReadFull(g.r, unsafe.Slice(&out[0][0], n*KeySize)); err != nil {
		clear(out)
		return nil, fmt.Errorf("keys: generating %d keys: %w", n, err)
	}
	for i := range out {
		if out[i].Zero() {
			out[i][0] = 1 // the all-zero key is reserved
		}
	}
	return out, nil
}

// ErrBadTag is returned by WrapContext.Unwrap when the integrity tag
// does not match, i.e. the wrapping key is wrong or the ciphertext was
// corrupted.
var ErrBadTag = errors.New("keys: wrapped key integrity tag mismatch")

// AESKernel reports which AES-128 path wraps and unwraps: "aesni" on
// amd64 CPUs that have it, "generic" (crypto/aes, with a key schedule
// built per call) otherwise and under the purego build tag. Fixed at
// init.
func AESKernel() string {
	if hasAES {
		return "aesni"
	}
	return "generic"
}

// encryptBlockGeneric and decryptBlockGeneric are the portable AES-128
// path: crypto/aes, keyed per call.
func encryptBlockGeneric(key *Key, dst, src *[KeySize]byte) { newBlock(key).Encrypt(dst[:], src[:]) }

func decryptBlockGeneric(key *Key, dst, src *[KeySize]byte) { newBlock(key).Decrypt(dst[:], src[:]) }

func newBlock(key *Key) cipher.Block {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // KeySize is a valid AES-128 key length
	}
	return block
}

// hmacBlockSize is SHA-256's block length, the pad width of HMAC.
const hmacBlockSize = 64

// SHA256Kernel reports which path runs the key server's batched SHA-256
// -- a WrapBatch's tags and a LeafBatch's and NewMerkleTree's Merkle
// hashes: "avx512" (16 lanes a kernel call) on amd64 CPUs with AVX-512F
// enabled by the OS, "generic" (crypto/sha256, one lane at a time)
// otherwise and under the purego build tag. Fixed at init.
func SHA256Kernel() string {
	if hasAVX512 {
		return "avx512"
	}
	return "generic"
}

// WrapBatch performs the {k'}_k operation that produces the
// "encryptions" carried in ENC and USR packets: one AES-128 block (the
// inner key encrypted under the outer key) followed by a truncated
// HMAC-SHA256 tag under the outer key. It is the key server's one wrap
// path. Add encrypts at once and stages the tag; every 16th Add, and
// Flush, compute the staged tags, 16 lanes to a kernel call. Staging is
// plain arrays (~5 KiB with the kernel's HMAC messages), so a WrapBatch
// declared in a loop's function stays on its stack and the loop
// allocates nothing. The zero value is ready; a WrapBatch is not safe
// for concurrent use.
type WrapBatch struct {
	n     int
	out   [hashLanes]*[WrappedSize]byte
	key   [hashLanes]Key           // lane i's outer key
	ct    [hashLanes][KeySize]byte // lane i's ciphertext, copied at Flush
	tags  [hashLanes]uint32        // the first word of lane i's HMAC
	stage tagStage
}

// Add wraps inner under outer into out. out holds the ciphertext when
// Add returns, and the tag once the batch's next kernel call has run:
// read it only after Flush.
func (b *WrapBatch) Add(out *[WrappedSize]byte, outer, inner *Key) {
	encryptBlock(outer, (*[KeySize]byte)(out[:KeySize]), (*[KeySize]byte)(inner))
	b.key[b.n] = *outer
	b.out[b.n] = out
	b.n++
	if b.n == hashLanes {
		b.Flush()
	}
}

// Flush writes the tags of every wrap added since the last kernel
// call. The tag is the top TagSize bytes of the HMAC's first word.
func (b *WrapBatch) Flush() {
	if b.n == 0 {
		return
	}
	// The ciphertexts are staged here, not in Add: no Add waits on its
	// AES block's result, so consecutive blocks overlap in the core.
	for i, out := range b.out[:b.n] {
		b.ct[i] = [KeySize]byte(out[:KeySize])
	}
	tagWords(b)
	for i, out := range b.out[:b.n] {
		out[KeySize] = byte(b.tags[i] >> 24)
		out[KeySize+1] = byte(b.tags[i] >> 16)
	}
	b.n = 0
}

// tagsGeneric is the portable tag path: hmacSum per staged lane.
func tagsGeneric(b *WrapBatch) {
	for i := range b.n {
		sum := hmacSum(&b.key[i], &b.ct[i])
		b.tags[i] = binary.BigEndian.Uint32(sum[:])
	}
}

// HMAC's inner and outer pad bytes, as one word and as a whole pad: a
// key's pads are these with the key XORed into their first KeySize
// bytes, which xorPad does a word at a time.
const ipadWord, opadWord = 0x3636363636363636, 0x5c5c5c5c5c5c5c5c

var (
	ipad0 = [hmacBlockSize]byte(bytes.Repeat([]byte{0x36}, hmacBlockSize))
	opad0 = [hmacBlockSize]byte(bytes.Repeat([]byte{0x5c}, hmacBlockSize))
)

// xorPad sets dst's first KeySize bytes to key XOR the pad word.
func xorPad(dst []byte, key *Key, pad uint64) {
	for i := 0; i < KeySize; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(key[i:])^pad)
	}
}

// hmacSum is the portable HMAC-SHA256 under key over a 16-byte msg,
// H(key^opad || H(key^ipad || msg)) -- the key is shorter than the
// block, so its pads are the zero-padded key XOR the pad bytes -- with
// each pad and its message stacked in one array for crypto/sha256,
// which uses the SHA extensions where the CPU has them. It allocates
// nothing.
func hmacSum(key *Key, msg *[KeySize]byte) [sha256.Size]byte {
	var inner [hmacBlockSize + KeySize]byte
	var outer [hmacBlockSize + sha256.Size]byte
	copy(inner[:], ipad0[:])
	copy(outer[:], opad0[:])
	xorPad(inner[:], key, ipadWord)
	xorPad(outer[:], key, opadWord)
	copy(inner[hmacBlockSize:], msg[:])
	h := sha256.Sum256(inner[:])
	copy(outer[hmacBlockSize:], h[:])
	return sha256.Sum256(outer[:])
}

// WrapContext unwraps: it checks the tag of, and decrypts, a wrapped
// key under one outer key at a time, so that a member walking its path
// re-keys one context per edge instead of building cipher objects per
// call. A context is not safe for concurrent use; a member keeps one
// per view.
type WrapContext struct {
	key Key
	// in and ct stage the block cipher's output and input: the portable
	// AES path is an interface call, so slicing a caller's value into it
	// forces it to escape (an allocation per call); staging through
	// context storage keeps the path allocation-free.
	in Key
	ct [WrappedSize]byte
}

// NewWrapContext returns a context keyed for outer.
func NewWrapContext(outer Key) *WrapContext { return &WrapContext{key: outer} }

// SetKey re-keys the context for a new outer key: it copies the key and
// allocates nothing. The AES round keys are derived per block, in
// registers where the CPU has AES-NI.
func (w *WrapContext) SetKey(outer Key) { w.key = outer }

// Unwrap decrypts a wrapped key with the context's key, verifying the
// truncated tag first. A tag mismatch yields ErrBadTag.
func (w *WrapContext) Unwrap(wrapped [WrappedSize]byte) (Key, error) {
	w.ct = wrapped
	sum := hmacSum(&w.key, (*[KeySize]byte)(w.ct[:KeySize]))
	if !hmac.Equal(sum[:TagSize], w.ct[KeySize:]) {
		return Key{}, ErrBadTag
	}
	decryptBlock(&w.key, (*[KeySize]byte)(&w.in), (*[KeySize]byte)(w.ct[:KeySize]))
	return w.in, nil
}

// Signer signs rekey messages. Signing is the expensive per-message
// operation whose amortisation motivates periodic batch rekeying; the
// capacity analysis benchmarks it.
type Signer struct {
	priv *rsa.PrivateKey
}

// NewSigner generates an RSA key pair of the given bit length
// (1024 matches the paper's era; use >=2048 for modern deployments).
func NewSigner(bits int) (*Signer, error) {
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("keys: generating signing key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// Sign returns an RSA PKCS#1 v1.5 signature over SHA-256 of msg.
func (s *Signer) Sign(msg []byte) ([]byte, error) {
	sum := sha256.Sum256(msg)
	return rsa.SignPKCS1v15(rand.Reader, s.priv, crypto.SHA256, sum[:])
}

// Public returns the verification key.
func (s *Signer) Public() *rsa.PublicKey { return &s.priv.PublicKey }

// Verify checks an RSA PKCS#1 v1.5 signature produced by Sign.
func Verify(pub *rsa.PublicKey, msg, sig []byte) error {
	sum := sha256.Sum256(msg)
	return rsa.VerifyPKCS1v15(pub, crypto.SHA256, sum[:], sig)
}
