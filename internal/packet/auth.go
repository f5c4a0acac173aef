package packet

// Auth trailer: amortized interval authentication (DESIGN.md). The
// server signs one Merkle root per rekey interval; every packet of the
// interval carries a trailer with the O(log n) inclusion proof(s) that
// tie the packet's bytes to that root, plus the root signature itself
// (so the first packet a member sees -- whichever it is -- suffices to
// authenticate the interval).
//
// The trailer is appended AFTER the packet's normal wire bytes and is
// self-delimiting from the end: the final two bytes are the trailer's
// total length, so a receiver can split packet from trailer without
// knowing the packet kind, and the fixed-length ENC/PARITY formats
// (exactly PacketLen bytes) are untouched. FEC parity covers only the
// inner packet bytes; trailers are per-packet metadata outside the
// coded payload.
//
// Layout (all integers big-endian), reading forward:
//
//	version   u8   = AuthVersion
//	flags     u8   : bits 0-1 = inner packet Type, bit 2 = has aux
//	nTop      u16  : top-tree leaf count
//	leafIndex u32  : leaf position in the sub tree (USR) / seq (ENC)
//	nSub      u32  : sub-tree leaf count (0 = no sub proof level)
//	nProofSub u8   : sub-proof entries (leaf -> sub-tree root)
//	nProofTop u8   : top-proof entries (sub root -> interval root)
//	subProof  32*nProofSub bytes
//	topProof  32*nProofTop bytes
//	aux       32 bytes, present iff flag bit 2 (PARITY: block root)
//	sigLen    u16
//	sig       sigLen bytes
//	trailerLen u16 : total trailer length including these two bytes
//
// The interval root is never carried: the verifier recomputes it from
// the proofs, which is what makes a forged trailer useless -- it can
// only reproduce the signed root by actually containing the signed
// content.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/keys"
)

// AuthVersion is the auth trailer version byte.
const AuthVersion = 1

// Auth trailer size bounds. Proof lengths are ceil(log2(n)): 24 levels
// already cover 16M leaves, far beyond MaxK blocks plus any group size
// this protocol addresses (16-bit user IDs).
const (
	// MaxAuthProofLen bounds each proof's entry count.
	MaxAuthProofLen = 24
	// MaxAuthSigLen bounds the root signature (RSA up to 8192 bits).
	MaxAuthSigLen = 1024
	// authFixedLen is the trailer's fixed overhead: version, flags,
	// nTop, leafIndex, nSub, two proof counts, sigLen and trailerLen.
	authFixedLen = 1 + 1 + 2 + 4 + 4 + 1 + 1 + 2 + 2
	// MaxAuthTrailer is the largest trailer AppendAuthTrailer can emit;
	// send buffers are sized PacketLen+MaxAuthTrailer.
	MaxAuthTrailer = authFixedLen + 2*MaxAuthProofLen*keys.HashSize + keys.HashSize + MaxAuthSigLen
)

// AuthTrailer is a packet's parsed interval-authentication trailer.
type AuthTrailer struct {
	// Kind is the inner packet's type, echoed in the trailer so a
	// trailer cut from one packet kind cannot be spliced onto another.
	Kind Type
	// NTop is the interval's top-tree leaf count.
	NTop int
	// LeafIndex is the packet's leaf position in its sub tree: the
	// packet Seq for ENC, the user's slot in the USR sub tree for USR.
	LeafIndex int
	// NSub is the sub-tree leaf count (k for ENC, the addressed-user
	// count for USR, 0 for PARITY which has no sub level).
	NSub int
	// SubProof proves the packet's leaf hash up to its sub-tree root.
	SubProof []keys.MerkleHash
	// TopProof proves the sub-tree root up to the interval root. The
	// top-tree index is implied by the packet: BlockID for ENC/PARITY,
	// NTop-1 (the last leaf) for USR.
	TopProof []keys.MerkleHash
	// HasAux reports whether Aux is meaningful.
	HasAux bool
	// Aux is the block sub-tree root, carried explicitly by PARITY
	// packets (whose payload is code, not a leaf of the block tree).
	Aux keys.MerkleHash
	// Sig is the RSA signature over the interval root.
	Sig []byte
}

// WireLen returns the number of bytes AppendAuthTrailer appends for t.
func (t *AuthTrailer) WireLen() int {
	n := authFixedLen + (len(t.SubProof)+len(t.TopProof))*keys.HashSize + len(t.Sig)
	if t.HasAux {
		n += keys.HashSize
	}
	return n
}

// ENCTrailerBound returns the most bytes the trailer of an ENC packet
// can take in an interval of nTop top-tree leaves and blocks of k
// packets, under a signature of sigLen bytes: a proof over n leaves has
// at most ceil(log2 n) entries.
func ENCTrailerBound(k, nTop, sigLen int) int {
	return authFixedLen + (bits.Len(uint(k-1))+bits.Len(uint(nTop-1)))*keys.HashSize + sigLen
}

// AppendAuthTrailer appends t's wire form to b and returns the
// extended slice.
func (t *AuthTrailer) AppendAuthTrailer(b []byte) ([]byte, error) {
	if len(t.SubProof) > MaxAuthProofLen || len(t.TopProof) > MaxAuthProofLen {
		return nil, fmt.Errorf("packet: auth proof length %d/%d exceeds %d",
			len(t.SubProof), len(t.TopProof), MaxAuthProofLen)
	}
	if len(t.Sig) == 0 || len(t.Sig) > MaxAuthSigLen {
		return nil, fmt.Errorf("packet: auth signature length %d, want 1..%d", len(t.Sig), MaxAuthSigLen)
	}
	if t.NTop < 1 || t.NTop > 1<<16-1 {
		return nil, fmt.Errorf("packet: auth nTop %d out of range", t.NTop)
	}
	if t.LeafIndex < 0 || int64(t.LeafIndex) > 0xFFFFFFFF || t.NSub < 0 || int64(t.NSub) > 0xFFFFFFFF {
		return nil, fmt.Errorf("packet: auth leaf position %d/%d out of range", t.LeafIndex, t.NSub)
	}
	start := len(b)
	flags := byte(t.Kind) & 0x03
	if t.HasAux {
		flags |= 1 << 2
	}
	b = append(b, AuthVersion, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(t.NTop))
	b = binary.BigEndian.AppendUint32(b, uint32(t.LeafIndex))
	b = binary.BigEndian.AppendUint32(b, uint32(t.NSub))
	b = append(b, byte(len(t.SubProof)), byte(len(t.TopProof)))
	for i := range t.SubProof {
		b = append(b, t.SubProof[i][:]...)
	}
	for i := range t.TopProof {
		b = append(b, t.TopProof[i][:]...)
	}
	if t.HasAux {
		b = append(b, t.Aux[:]...)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(t.Sig)))
	b = append(b, t.Sig...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(b)-start+2))
	return b, nil
}

// The "this datagram carries no trailer" exits of SplitAuth: every plain
// packet fed to a non-verifying member takes one of them, so they are
// built once, not formatted per packet.
var (
	errAuthShort   = errors.New("packet: too short for an auth trailer")
	errAuthLen     = errors.New("packet: auth trailer length out of range")
	errAuthVersion = fmt.Errorf("packet: auth trailer version is not %d", AuthVersion)
)

// SplitAuth splits a received datagram into the inner packet bytes and
// its parsed auth trailer. It fails on any structural inconsistency --
// a bad version, a length that does not add up, proof counts over
// bound, or a trailer kind that contradicts the inner packet's type
// byte. The returned trailer's proof and signature slices are copies;
// inner aliases b.
func SplitAuth(b []byte) (inner []byte, t *AuthTrailer, err error) {
	t = new(AuthTrailer)
	if inner, err = t.Split(b); err != nil {
		return nil, nil, err
	}
	return inner, t, nil
}

// Split is SplitAuth parsing into t, whose proof and signature storage
// it reuses: a receiver that keeps one AuthTrailer splits datagram
// after datagram without allocating. On error t is unspecified.
func (t *AuthTrailer) Split(b []byte) (inner []byte, err error) {
	if len(b) < authFixedLen {
		return nil, errAuthShort
	}
	tl := int(binary.BigEndian.Uint16(b[len(b)-2:]))
	if tl < authFixedLen || tl > len(b) {
		return nil, errAuthLen
	}
	inner = b[:len(b)-tl]
	tr := b[len(b)-tl : len(b)-2]
	if tr[0] != AuthVersion {
		return nil, errAuthVersion
	}
	if tr[1]&^0x07 != 0 {
		return nil, fmt.Errorf("packet: auth trailer flags %#x unknown", tr[1])
	}
	t.Kind = Type(tr[1] & 0x03)
	t.HasAux = tr[1]&(1<<2) != 0
	t.NTop = int(binary.BigEndian.Uint16(tr[2:]))
	t.LeafIndex = int(binary.BigEndian.Uint32(tr[4:]))
	t.NSub = int(binary.BigEndian.Uint32(tr[8:]))
	if t.NTop < 1 {
		return nil, fmt.Errorf("packet: auth trailer nTop %d out of range", t.NTop)
	}
	nSub, nTop := int(tr[12]), int(tr[13])
	if nSub > MaxAuthProofLen || nTop > MaxAuthProofLen {
		return nil, fmt.Errorf("packet: auth proof counts %d/%d exceed %d", nSub, nTop, MaxAuthProofLen)
	}
	off := 14
	need := off + (nSub+nTop)*keys.HashSize
	if t.HasAux {
		need += keys.HashSize
	}
	if need+2 > len(tr) { // +2 for sigLen
		return nil, fmt.Errorf("packet: auth trailer truncated (%d bytes, need %d)", len(tr), need+2)
	}
	t.SubProof, off = appendProof(t.SubProof[:0], tr, off, nSub)
	t.TopProof, off = appendProof(t.TopProof[:0], tr, off, nTop)
	t.Aux = keys.MerkleHash{}
	if t.HasAux {
		copy(t.Aux[:], tr[off:])
		off += keys.HashSize
	}
	sigLen := int(binary.BigEndian.Uint16(tr[off:]))
	off += 2
	if sigLen == 0 || sigLen > MaxAuthSigLen || off+sigLen != len(tr) {
		return nil, fmt.Errorf("packet: auth signature length %d inconsistent with trailer", sigLen)
	}
	t.Sig = append(t.Sig[:0], tr[off:off+sigLen]...)
	kind, err := Detect(inner)
	if err != nil {
		return nil, err
	}
	if kind != t.Kind {
		return nil, fmt.Errorf("packet: auth trailer kind %v on a %v packet", t.Kind, kind)
	}
	return inner, nil
}

// appendProof appends the n hashes at tr[off:] to p and returns it with
// the offset past them.
func appendProof(p []keys.MerkleHash, tr []byte, off, n int) ([]keys.MerkleHash, int) {
	for i := 0; i < n; i++ {
		var h keys.MerkleHash
		copy(h[:], tr[off:])
		p = append(p, h)
		off += keys.HashSize
	}
	return p, off
}
