package rekey

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/keys"
	"repro/internal/packet"
)

// refUSRTree is the serial reference buildAuth's USR subtree is checked
// against (and what bench/trace.go replays on a traced run): per user
// USRFor -> Marshal -> LeafHash, then one serial NewMerkleTree.
func refUSRTree(t testing.TB, rm *RekeyMessage) (raws [][]byte, leaves []keys.MerkleHash, root keys.MerkleHash) {
	t.Helper()
	raws = make([][]byte, len(rm.Result.UserIDs))
	leaves = make([]keys.MerkleHash, len(rm.Result.UserIDs))
	for i, uid := range rm.Result.UserIDs {
		usr, err := rm.USRFor(uid)
		if err != nil {
			t.Fatal(err)
		}
		if raws[i], err = usr.Marshal(); err != nil {
			t.Fatal(err)
		}
		leaves[i] = keys.LeafHash(keys.DomainUSR, raws[i])
	}
	return raws, leaves, keys.NewMerkleTree(leaves).Root()
}

// checkUSRSubtree holds a signed message's USR subtree to the reference:
// same root, and for every user WireUSR is the reference packet followed
// by a trailer that proves the reference leaf into that root and on into
// the root the signature covers.
func checkUSRSubtree(t *testing.T, s *Server, rm *RekeyMessage) (leaves []keys.MerkleHash, usrRoot keys.MerkleHash) {
	t.Helper()
	raws, leaves, usrRoot := refUSRTree(t, rm)
	if got := rm.auth.usrTree.Root(); got != usrRoot {
		t.Fatalf("USR subtree root %x, reference %x", got, usrRoot)
	}
	if got := rm.auth.usrTree.NumLeaves(); got != len(leaves) {
		t.Fatalf("USR subtree has %d leaves, want %d", got, len(leaves))
	}
	signed := rm.auth.top.Root()
	if err := keys.VerifyRoot(s.SignerPublic(), signed, rm.auth.sig); err != nil {
		t.Fatalf("interval root signature: %v", err)
	}
	for i, uid := range rm.Result.UserIDs {
		wire, err := rm.WireUSR(uid)
		if err != nil {
			t.Fatalf("WireUSR(%d): %v", uid, err)
		}
		inner, tr, err := packet.SplitAuth(wire)
		if err != nil {
			t.Fatalf("WireUSR(%d): %v", uid, err)
		}
		if !bytes.Equal(inner, raws[i]) {
			t.Fatalf("WireUSR(%d) packet differs from USRFor(%d).Marshal()", uid, uid)
		}
		if tr.LeafIndex != i || tr.NSub != len(leaves) || !bytes.Equal(tr.Sig, rm.auth.sig) {
			t.Fatalf("WireUSR(%d) trailer: leaf %d of %d, want %d of %d", uid, tr.LeafIndex, tr.NSub, i, len(leaves))
		}
		sub, ok := keys.VerifyMerkleProof(leaves[i], tr.LeafIndex, tr.NSub, tr.SubProof)
		if !ok || sub != usrRoot {
			t.Fatalf("user %d (leaf %d of %d): sub proof does not reach the USR root", uid, i, len(leaves))
		}
		top, ok := keys.VerifyMerkleProof(sub, tr.NTop-1, tr.NTop, tr.TopProof)
		if !ok || top != signed {
			t.Fatalf("user %d: top proof does not reach the signed root", uid)
		}
	}
	return leaves, usrRoot
}

// TestUSRSubtreeMatchesReference runs the builder at several GOMAXPROCS
// and at group sizes on both sides of every chunking edge (one user, one
// pair, a lone promoted leaf, a level wide enough to fan out, an odd
// width above it), through a bootstrap and a replace interval.
func TestUSRSubtreeMatchesReference(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 5, 1000, 4097} {
		for _, workers := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(workers)
			s, err := NewServer(WithKeySeed(uint64(n)), WithSigner(signer))
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < n; m++ {
				if err := s.QueueJoin(MemberID(m)); err != nil {
					t.Fatal(err)
				}
			}
			rm, err := s.Rekey()
			if err != nil {
				t.Fatalf("N=%d workers=%d: %v", n, workers, err)
			}
			checkUSRSubtree(t, s, rm)
			for m := 0; m < n/4; m++ {
				if err := s.QueueLeave(MemberID(3 * m)); err != nil {
					t.Fatal(err)
				}
				if err := s.QueueJoin(MemberID(n + m)); err != nil {
					t.Fatal(err)
				}
			}
			if rm, err = s.Rekey(); err == nil {
				checkUSRSubtree(t, s, rm)
			} else if n >= 4 {
				t.Fatalf("N=%d workers=%d replace: %v", n, workers, err)
			}
		}
	}
}

// TestUSRSubtreeGolden pins the USR leaf vector and subtree root of a
// seeded signed server, as the serial code before the parallel builder
// computed them (neither depends on the signer's key).
func TestUSRSubtreeGolden(t *testing.T) {
	s, _ := newSignedServer(t, 0x5eed)
	for _, gc := range []struct {
		name          string
		joins, leaves [2]int
		digest        string
	}{
		{"bootstrap", [2]int{0, 1500}, [2]int{}, "bbd0540e6e825da3b11442073f81f74c2ab57849515d630ab565a6510b8ab4d1"},
		{"replace", [2]int{1500, 400}, [2]int{900, 400}, "dcddca96b81dfd19b709627b19c0ecc01c7d0dd8c86fb46690a233a1866589f5"},
	} {
		queueRanges(t, s, gc.joins, gc.leaves)
		rm, err := s.Rekey()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		leaves, root := checkUSRSubtree(t, s, rm)
		h := sha256.New()
		for i := range leaves {
			h.Write(leaves[i][:])
		}
		h.Write(root[:])
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != gc.digest {
			t.Errorf("%s (%d users): digest %s, want %s", gc.name, len(leaves), got, gc.digest)
		}
	}
}

// TestSignedIntervalGolden pins what a seeded signed server commits to
// over bootstrap, replace and shrink intervals: one SHA-256 per
// interval over the top root, every block root, and every ENC, two
// PARITY per block and every user's USR datagram, each with the
// signature bytes cut out of its trailer (the test's RSA key is fresh
// on every run). Every hash of the interval's Merkle tree reaches the
// digest, through a root or a proof.
func TestSignedIntervalGolden(t *testing.T) {
	s, _ := newSignedServer(t, 0x5eed)
	for _, gc := range []struct {
		name          string
		joins, leaves [2]int
		digest        string
	}{
		{"bootstrap", [2]int{0, 1500}, [2]int{}, "b071b392d36acedc6a8edf776d0b7440686ebc85f9c23eb7ed37a27d676fbcfc"},
		{"replace", [2]int{1500, 400}, [2]int{900, 400}, "4c626c5a34303a1aa2b6e5814ac43f5c6b7685c4b83c5a97c2403b5681940fbc"},
		{"shrink", [2]int{}, [2]int{100, 500}, "58fb981a5c33442107e9780cacfd590f6184a6328752b8e36d7eed8c66cbd5f0"},
	} {
		queueRanges(t, s, gc.joins, gc.leaves)
		rm, err := s.Rekey()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		sig := rm.auth.sig
		h := sha256.New()
		unsigned := func(wire []byte, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			_, tr, err := packet.SplitAuth(wire)
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			at := bytes.LastIndex(wire, sig)
			if !bytes.Equal(tr.Sig, sig) || at < 0 {
				t.Fatalf("%s: a datagram's trailer does not carry the interval signature", gc.name)
			}
			h.Write(wire[:at])
			h.Write(wire[at+len(sig):])
		}
		root := rm.auth.top.Root()
		h.Write(root[:])
		for _, bt := range rm.auth.blockTrees {
			r := bt.Root()
			h.Write(r[:])
		}
		for j := range rm.ENC {
			unsigned(rm.WireENC(j))
		}
		for b := 0; b < rm.Blocks(); b++ {
			for p := 0; p < 2; p++ {
				unsigned(rm.AppendWireParity(nil, b, p))
			}
		}
		for _, uid := range rm.Result.UserIDs {
			unsigned(rm.WireUSR(uid))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != gc.digest {
			t.Errorf("%s (%d blocks, %d users): digest %s, want %s", gc.name, rm.Blocks(), len(rm.Result.UserIDs), got, gc.digest)
		}
	}
}
