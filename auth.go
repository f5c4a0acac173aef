package rekey

// Amortized interval signing (DESIGN.md "Amortized interval
// authentication"): instead of signing every packet, Rekey builds one
// two-tier Merkle tree over everything the interval can send and signs
// only its root.
//
//	top tree leaves:  [blockRoot_0 .. blockRoot_{B-1}, usrRoot]
//	blockRoot_b:      root over the k ENC leaf hashes of block b
//	                  (leaf s = H(0x00 || ENC-domain || packet bytes))
//	usrRoot:          root over one USR leaf per current user, in
//	                  sorted node-ID order (leaf = H(0x00 || USR-domain
//	                  || USR packet bytes))
//
// Every outgoing packet carries a packet.AuthTrailer: ENC packets
// prove leaf -> blockRoot -> root; PARITY packets (whose payload is
// code, not a tree leaf) carry blockRoot explicitly plus its top
// proof, and the decoded block is checked against that root after FEC
// recovery; USR packets prove leaf -> usrRoot -> root. The root
// signature rides in every trailer so any first packet authenticates
// the interval; members cache verified roots (keys.RootVerifier) and
// pay the RSA check once per interval.

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/tuning"
)

// ErrNoAuthLeaf is returned by WireUSR when the requested node ID has
// no leaf in the interval's USR subtree (it was not a user when the
// message was signed), so no authenticated unicast can be built.
var ErrNoAuthLeaf = errors.New("rekey: user has no leaf in the interval auth tree")

// WithSigner attaches an interval signer: each rekey message's Merkle
// root is signed once and every packet carries an inclusion proof plus
// that signature. Members verify with a keys.RootVerifier over
// SignerPublic.
func WithSigner(s *keys.Signer) Option { return func(c *Config) { c.Signer = s } }

// SignerPublic returns the public key members verify interval roots
// against, or nil when the server does not sign.
func (s *Server) SignerPublic() *rsa.PublicKey {
	if s.cfg.Signer == nil {
		return nil
	}
	return s.cfg.Signer.Public()
}

// intervalAuth is one rekey message's authentication state, built once
// under Server.mu and read-only afterwards.
type intervalAuth struct {
	blockTrees []keys.MerkleTree // one slab
	usrTree    *keys.MerkleTree
	top        *keys.MerkleTree
	sig        []byte // RSA signature over top.Root()
	nTop       int
	parityTr   [][]byte // per-block PARITY trailer bytes, cut from one slab
}

// Authenticated reports whether the message carries interval
// authentication (the server was built WithSigner).
func (rm *RekeyMessage) Authenticated() bool { return rm.auth != nil }

// minUsersPerPiece is the run of users usrLeaves hands a goroutine at a
// time: ~50 us of walking, marshalling and hashing, 16 leaves to a
// kernel call. Measured on usrLeaves at N = 16 384 after a J = L = 4096
// batch (2-core Xeon, AVX-512F): 256 and 512 read ~3.0 ms at 1 P and
// ~1.45 ms at 2 P; 64 and 128 read 3.6-4.0 ms at 1 P, where each piece
// restarts its walk and its batch; 1024 and 2048 balance the two
// goroutines worse, 1.5-2.0 ms at 2 P.
const minUsersPerPiece = 256

// usrScratch is one usrLeaves goroutine's walker and leaf buffer, at
// PacketLen: no USR datagram (16-bit IDs, at most 17 entries) outgrows
// it. buf[chainAt:] holds the walker's current parent chain as USR
// entries, marshalled when the chain changes; a user's header and own
// entry go right before it, so its datagram is a suffix of buf.
type usrScratch struct {
	w   keytree.NeedsWalker
	buf []byte
}

// chainAt is where a USR datagram's chain entries start when the user
// has an entry of its own.
const chainAt = packet.USRHeaderLen + packet.EncEntryLen

// usrLeaves fills leaves, the USR subtree's own leaf level, with one
// hash for every current user, in UserIDs order (the leaf index of a
// node ID is its position there): the hash of exactly the bytes WireUSR
// sends it. The users are independent, so runs of them fan out
// (tuning.FanOut); each goroutine walks its runs with its own
// NeedsWalker, marshals into its own scratch buffer -- a sibling
// group's shared chain once -- hashes 16 users to a keys.LeafBatch
// kernel call, and writes only its own runs of leaves.
func (rm *RekeyMessage) usrLeaves(leaves []keys.MerkleHash) error {
	ids := rm.Result.UserIDs
	if len(ids) > 0 { // sorted: the last is the largest
		if err := rm.checkUSRFields(ids[len(ids)-1]); err != nil {
			return err
		}
	}
	encs := rm.Result.Encryptions
	return tuning.FanOut(len(ids), minUsersPerPiece, func() *usrScratch {
		return &usrScratch{w: rm.Result.Walker(), buf: make([]byte, chainAt, packet.PacketLen)}
	}, func(s *usrScratch, lo, hi int) error {
		var hb keys.LeafBatch
		for i := lo; i < hi; i++ {
			needs := s.w.Needs(ids[i])
			chain, reused := s.w.Chain()
			own := needs[:len(needs)-chain]
			if !reused {
				s.buf = s.buf[:chainAt]
				for _, j := range needs[len(own):] {
					s.buf = packet.AppendEncEntry(s.buf, &encs[j])
				}
			}
			at := chainAt - len(own)*packet.EncEntryLen - packet.USRHeaderLen
			b, err := packet.AppendUSRHeader(s.buf[at:at], rm.MsgID, uint16(ids[i]), uint16(rm.Result.MaxKID))
			if err != nil {
				return err
			}
			for _, j := range own {
				b = packet.AppendEncEntry(b, &encs[j])
			}
			hb.Add(&leaves[i], keys.DomainUSR, b[:len(b)+len(s.buf)-chainAt]) // b ends where the chain starts
		}
		hb.Flush()
		return nil
	})
}

// usrSubtree builds the USR subtree, its leaves hashed straight into
// the tree's own leaf level.
func (rm *RekeyMessage) usrSubtree() (*keys.MerkleTree, error) {
	trees, err := keys.BuildMerkleTrees(len(rm.Result.UserIDs), len(rm.Result.UserIDs), rm.usrLeaves)
	if err != nil {
		return nil, err
	}
	return &trees[0], nil
}

// startUSRSubtree starts a goroutine on the USR subtree -- the leaves
// and the tree over them -- and returns a function that waits for it.
// The build reads only rm.MsgID and rm.Result, so it may run while
// Rekey fills in the rest of rm.
func (rm *RekeyMessage) startUSRSubtree() func() (*keys.MerkleTree, error) {
	build := sync.OnceValues(func() (*keys.MerkleTree, error) {
		var start time.Time
		if rm.obs.Enabled() {
			start = time.Now()
		}
		tree, err := rm.usrSubtree()
		if err != nil {
			return nil, err
		}
		rm.obs.ObserveSince(obs.HUSRSubtree, start)
		return tree, nil
	})
	go build()
	return build
}

// blockTrees returns the Merkle subtree of every FEC block, over its k
// ENC datagrams as marshalled into rm.ENC, all in one slab: the
// datagrams are hashed 16 to a kernel call straight into the trees'
// leaf levels.
func (rm *RekeyMessage) blockTrees() []keys.MerkleTree {
	// The hashing cannot fail, so neither can the build.
	trees, _ := keys.BuildMerkleTrees(len(rm.ENC), rm.k, func(leaves []keys.MerkleHash) error {
		var hb keys.LeafBatch
		for i, raw := range rm.ENC {
			hb.Add(&leaves[i], keys.DomainENC, raw)
		}
		hb.Flush()
		return nil
	})
	return trees
}

// buildAuth joins the block subtrees and the USR subtree (usrTree waits
// for it, or builds it) under the interval's top tree, signs the root,
// appends each ENC datagram's trailer to it and pre-builds the per-block
// PARITY trailers. Called once from Rekey; rm is not yet shared.
func (rm *RekeyMessage) buildAuth(signer *keys.Signer, blockTrees []keys.MerkleTree, usrTree func() (*keys.MerkleTree, error)) error {
	usr, err := usrTree()
	if err != nil {
		return err
	}
	var start time.Time
	if rm.obs.Enabled() {
		start = time.Now()
	}
	nBlocks := rm.Blocks()
	a := &intervalAuth{
		blockTrees: blockTrees,
		usrTree:    usr,
		nTop:       nBlocks + 1,
		parityTr:   make([][]byte, nBlocks),
	}
	top, _ := keys.BuildMerkleTrees(a.nTop, a.nTop, func(leaves []keys.MerkleHash) error {
		for b := range blockTrees {
			leaves[b] = blockTrees[b].Root()
		}
		leaves[nBlocks] = usr.Root()
		return nil
	})
	a.top = &top[0]
	root := a.top.Root()
	sig, err := signer.SignRoot(root)
	if err != nil {
		return err
	}
	a.sig = sig

	// Pre-built trailers: one per ENC packet, appended in place after
	// it, and one per block for PARITY (every parity packet of a block
	// shares the same trailer). The proofs go through one scratch pair:
	// AppendAuthTrailer copies them into the wire bytes.
	var sub, topProof [packet.MaxAuthProofLen]keys.MerkleHash
	tr := packet.AuthTrailer{Kind: packet.TypeENC, NTop: a.nTop, NSub: rm.k, Sig: a.sig}
	for i := range rm.ENC {
		b, s := i/rm.k, i%rm.k
		if s == 0 {
			tr.TopProof = a.top.AppendProof(topProof[:0], b)
		}
		tr.LeafIndex = s
		tr.SubProof = a.blockTrees[b].AppendProof(sub[:0], s)
		wire, err := tr.AppendAuthTrailer(rm.ENC[i])
		if err != nil {
			return err
		}
		rm.ENC[i] = wire
		rm.obs.Observe(obs.HMerkleProofBytes, float64(len(wire)-packet.PacketLen))
	}
	tr = packet.AuthTrailer{Kind: packet.TypePARITY, NTop: a.nTop, HasAux: true, Sig: a.sig}
	var slab []byte
	for b := 0; b < nBlocks; b++ {
		tr.TopProof = a.top.AppendProof(topProof[:0], b)
		tr.Aux = a.blockTrees[b].Root()
		if b == 0 {
			// Leaf 0 has a sibling at every level below the root, so its
			// trailer is the longest: the slab never grows.
			slab = make([]byte, 0, nBlocks*tr.WireLen())
		}
		at := len(slab)
		if slab, err = tr.AppendAuthTrailer(slab); err != nil {
			return err
		}
		a.parityTr[b] = slab[at:len(slab):len(slab)]
		rm.obs.Observe(obs.HMerkleProofBytes, float64(len(slab)-at))
	}
	rm.auth = a
	if rm.obs.Enabled() {
		rm.obs.ObserveSince(obs.HSignRoot, start)
	}
	return nil
}

// WireENC returns ENC datagram i's send bytes: the packet plus, on an
// authenticated message, its auth trailer. The returned slice is
// shared and must not be modified; Rekey built it, so sending one
// interval's packets allocates nothing.
func (rm *RekeyMessage) WireENC(i int) ([]byte, error) {
	return rm.ENC[i], nil
}

// AppendWireParity appends the send bytes of PARITY packet idx of the
// given block -- packet plus trailer on an authenticated message -- to
// dst and returns the extended slice. It extends a shorter parity
// prefix as BuildRound does; with the payload encoded and enough
// capacity in dst it does not allocate: the datagram is built straight
// from the payload and the pre-built per-block trailer, with no
// intermediate packet struct.
func (rm *RekeyMessage) AppendWireParity(dst []byte, block, idx int) ([]byte, error) {
	if block < 0 || block >= rm.Blocks() {
		return nil, fmt.Errorf("rekey: block %d out of range", block)
	}
	if idx < 0 {
		return nil, fmt.Errorf("rekey: parity index %d out of range", idx)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if idx >= len(rm.parity[block]) {
		want := make([]int, block+1)
		want[block] = idx + 1
		if err := rm.encodeLocked(context.TODO(), want); err != nil {
			return nil, err
		}
	}
	return rm.appendParityLocked(dst, block, idx)
}

// appendParityLocked appends the send bytes of the encoded PARITY
// packet idx of the given block to dst. Callers hold rm.mu.
func (rm *RekeyMessage) appendParityLocked(dst []byte, block, idx int) ([]byte, error) {
	if block > 0xff || rm.k+idx > 0xff {
		return nil, fmt.Errorf("rekey: parity shard (%d,%d) exceeds wire fields", block, rm.k+idx)
	}
	dst, err := packet.AppendParity(dst, rm.MsgID, uint8(block), uint8(rm.k+idx), rm.parity[block][idx])
	if err != nil {
		return nil, err
	}
	if rm.auth != nil {
		dst = append(dst, rm.auth.parityTr[block]...)
	}
	return dst, nil
}

// WireUSR returns the unicast datagram for the given user node ID:
// the USR packet plus, on an authenticated message, its auth trailer
// (leaf -> usrRoot -> interval root, built on demand -- unicast is the
// cold path).
func (rm *RekeyMessage) WireUSR(nodeID int) ([]byte, error) {
	if err := rm.checkUSRFields(nodeID); err != nil {
		return nil, err
	}
	w := rm.Result.Walker()
	needs := w.Needs(nodeID)
	usrLen := packet.USRHeaderLen + len(needs)*packet.EncEntryLen
	a := rm.auth
	if a == nil {
		return rm.appendUSR(make([]byte, 0, usrLen), nodeID, needs)
	}
	idx, ok := slices.BinarySearch(rm.Result.UserIDs, nodeID)
	if !ok {
		return nil, ErrNoAuthLeaf
	}
	var sub, top [packet.MaxAuthProofLen]keys.MerkleHash
	tr := packet.AuthTrailer{
		Kind:      packet.TypeUSR,
		NTop:      a.nTop,
		LeafIndex: idx,
		NSub:      a.usrTree.NumLeaves(),
		SubProof:  a.usrTree.AppendProof(sub[:0], idx),
		TopProof:  a.top.AppendProof(top[:0], a.nTop-1),
		Sig:       a.sig,
	}
	wire, err := rm.appendUSR(make([]byte, 0, usrLen+tr.WireLen()), nodeID, needs)
	if err != nil {
		return nil, err
	}
	if wire, err = tr.AppendAuthTrailer(wire); err != nil {
		return nil, err
	}
	rm.obs.Observe(obs.HMerkleProofBytes, float64(len(wire)-usrLen))
	return wire, nil
}
