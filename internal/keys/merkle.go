package keys

// Amortized interval authentication: instead of one RSA signature per
// packet (or per message part), the server builds a Merkle tree over
// the hashes of everything an interval sends, signs only the root, and
// lets every packet carry an O(log n) inclusion proof. A member checks
// the proof (a handful of SHA-256 compressions), recomputes the root,
// and pays the RSA verification once per interval -- the RootVerifier
// below caches roots whose signature already checked out.
//
// Hashing is domain-separated: leaves hash as H(0x00 || domain ||
// data) and interior nodes as H(0x01 || left || right), so a leaf can
// never be confused with a node and leaves of different packet kinds
// can never be confused with each other. Odd nodes at any level are
// promoted unchanged (no duplication), which keeps proofs minimal and
// makes the leaf count part of what a verifier must know -- proofs are
// checked against an explicit (index, numLeaves) position.

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/tuning"
)

// HashSize is the size of the Merkle tree's hashes (SHA-256).
const HashSize = sha256.Size

// MerkleHash is one node or leaf hash of an interval's Merkle tree.
type MerkleHash = [HashSize]byte

// Leaf-domain bytes: each packet kind hashes under its own domain so
// (for example) an ENC body can never stand in for a USR body.
const (
	DomainENC = 0x01
	DomainUSR = 0x02
)

// LeafHash hashes one leaf: H(0x00 || domain || data).
func LeafHash(domain byte, data []byte) MerkleHash {
	h := sha256.New()
	var pre [2]byte
	pre[0] = 0x00
	pre[1] = domain
	h.Write(pre[:])
	h.Write(data)
	var out MerkleHash
	h.Sum(out[:0])
	return out
}

// nodeHash hashes one interior node: H(0x01 || left || right).
func nodeHash(left, right *MerkleHash) MerkleHash {
	var buf [1 + 2*HashSize]byte
	buf[0] = 0x01
	copy(buf[1:], left[:])
	copy(buf[1+HashSize:], right[:])
	return sha256.Sum256(buf[:])
}

// hashLanes is the number of messages one kernel call hashes: Merkle
// leaves or nodes, or wrap tags' HMAC passes.
const hashLanes = 16

// laneBlocks is the longest padded message a LeafBatch lane stages, in
// SHA-256 blocks: a leaf over one 1027-byte datagram (2 prefix bytes,
// 1027 of data and at least 9 of padding) fits in 17. laneBytes is the
// lane's row in the staging array, the stride the kernel is handed.
const (
	laneBlocks = 17
	laneBytes  = laneBlocks * sha256.BlockSize
	// maxStagedLeaf is the longest leaf data a lane stages: longer
	// leaves are hashed at once by LeafHash.
	maxStagedLeaf = laneBytes - 9 - 2
)

// minKernelLanes is the fewest staged lanes a Flush hands the 16-lane
// kernel: a call costs the same for 1 lane as for 16 (~0.4 us a block
// of the longest lane), so below this the staged lanes are cheaper
// through crypto/sha256. Measured with lanes of one length (2-core
// Xeon): the kernel breaks even at 5 lanes of 145 bytes (1.3 us either
// way) and at 7 of 1027 bytes (6.7 us).
const minKernelLanes = 6

// LeafBatch computes leaf hashes 16 to a kernel call: it is how the key
// server hashes an interval's USR and ENC datagrams into Merkle leaves.
// Add stages the leaf message 0x00 || domain || data, padded as SHA-256
// pads it; every 16th Add, and Flush, hash the staged lanes in one call
// of the AVX-512 kernel. Lanes of different lengths share a call: the
// kernel runs as many blocks as the longest lane has and masks the
// state update of lanes that have run out. Without AVX-512F (other CPUs
// and GOARCHes, -tags purego) Add hashes at once through LeafHash, and
// a Flush of fewer than minKernelLanes staged lanes hashes them with
// crypto/sha256; the hashes are LeafHash's on every path. Staging is
// plain arrays (~18 KiB), so a LeafBatch declared in a function stays
// on its stack and hashing allocates nothing. The zero value is ready;
// a LeafBatch is not safe for concurrent use.
type LeafBatch struct {
	n         int
	maxBlocks int                        // the most blocks any staged lane has
	out       [hashLanes]*MerkleHash     // where lane i's hash goes
	lens      [hashLanes]int             // lane i's message length
	blocks    [hashLanes]uint32          // lane i's padded length in blocks
	sums      [hashLanes]MerkleHash      // the kernel's output
	msg       [hashLanes][laneBytes]byte // lane i's padded message
}

// Add sets *out to LeafHash(domain, data). data is copied: the caller
// may reuse it when Add returns. *out is written by the batch's next
// kernel call: read it only after Flush.
func (b *LeafBatch) Add(out *MerkleHash, domain byte, data []byte) {
	if !hasAVX512 || len(data) > maxStagedLeaf {
		*out = LeafHash(domain, data)
		return
	}
	m := &b.msg[b.n]
	m[0], m[1] = 0x00, domain
	copy(m[2:], data)
	// SHA-256's padding: 0x80, zeros, and the bit length in the last 8
	// bytes of the last block.
	l := 2 + len(data)
	blocks := (l + 9 + sha256.BlockSize - 1) / sha256.BlockSize
	end := blocks * sha256.BlockSize
	m[l] = 0x80
	clear(m[l+1 : end-8])
	binary.BigEndian.PutUint64(m[end-8:end], uint64(l)*8)
	b.out[b.n], b.lens[b.n], b.blocks[b.n] = out, l, uint32(blocks)
	b.maxBlocks = max(b.maxBlocks, blocks)
	b.n++
	if b.n == hashLanes {
		b.Flush()
	}
}

// Flush writes the hash of every lane staged since the last kernel
// call. The lanes past the staged ones still hold an earlier call's
// messages; the kernel hashes them too, and their hashes are dropped.
func (b *LeafBatch) Flush() {
	if b.n == 0 {
		return
	}
	hashStaged(b)
	b.n, b.maxBlocks = 0, 0
}

// hashStagedGeneric is the portable path of the staged lanes:
// crypto/sha256, one lane at a time.
func hashStagedGeneric(b *LeafBatch) {
	for i, out := range b.out[:b.n] {
		*out = sha256.Sum256(b.msg[i][:b.lens[i]])
	}
}

// MerkleTree is a binary hash tree over a fixed ordered leaf set. A
// lone node at the end of an odd-width level is promoted unchanged.
// The zero-leaf tree is not representable; callers always have at
// least one packet per interval.
type MerkleTree struct {
	// levels[0] is the leaf level; levels[len-1] has exactly one node,
	// the root. All levels are runs of one allocation.
	levels [][]MerkleHash
}

// NewMerkleTree builds the tree over the given leaf hashes. It panics
// on an empty leaf set. The leaves slice is copied. The pair hashing of
// each wide level fans out over GOMAXPROCS goroutines; the tree is the
// same whatever their number.
func NewMerkleTree(leaves []MerkleHash) *MerkleTree {
	// The copy cannot fail, so neither can the build.
	trees, _ := BuildMerkleTrees(len(leaves), len(leaves), func(level []MerkleHash) error {
		copy(level, leaves)
		return nil
	})
	return &trees[0]
}

// BuildMerkleTrees builds one tree over each run of width of n leaves,
// in order, with every level of every tree in one slab. fill is handed
// the trees' own leaf levels, all n leaves in order, and must set each
// of them: a caller that computes its leaves hashes them straight into
// the trees, with no leaf array of its own to copy. The n leaves lie
// before every interior node in the slab, so hashing one tree's levels
// never writes another's leaves. fill's error, if any, is returned with
// no trees. It panics unless width is positive and divides n, n > 0.
// Wide levels fan out as in NewMerkleTree.
func BuildMerkleTrees(n, width int, fill func(leaves []MerkleHash) error) ([]MerkleTree, error) {
	if n <= 0 || width <= 0 || n%width != 0 {
		panic("keys: Merkle trees over an empty or uneven leaf set")
	}
	nodes, depth := 0, 1 // one tree's interior nodes and levels
	for w := width; w > 1; w = (w + 1) / 2 {
		nodes, depth = nodes+(w+1)/2, depth+1
	}
	trees := make([]MerkleTree, n/width)
	slab := make([]MerkleHash, n+len(trees)*nodes)
	if err := fill(slab[:n:n]); err != nil {
		return nil, err
	}
	levels := make([][]MerkleHash, len(trees)*depth)
	off := n
	for i := range trees {
		tl := levels[i*depth : (i+1)*depth : (i+1)*depth]
		level := slab[i*width : (i+1)*width : (i+1)*width]
		tl[0] = level
		for l := 1; l < depth; l++ {
			w := (len(level) + 1) / 2
			next := slab[off : off+w : off+w]
			off += w
			hashLevel(next[:len(level)/2], level)
			if len(level)%2 == 1 {
				next[w-1] = level[len(level)-1]
			}
			level = next
			tl[l] = level
		}
		trees[i].levels = tl
	}
	return trees, nil
}

// MerkleRoot returns the root of the tree over level, the root
// NewMerkleTree(level).Root() has, reducing level in place: its hashes
// are overwritten. It allocates nothing and runs on the calling
// goroutine. It panics on an empty level.
func MerkleRoot(level []MerkleHash) MerkleHash {
	if len(level) == 0 {
		panic("keys: Merkle tree over zero leaves")
	}
	for len(level) > 1 {
		// Node i overwrites slot i, whose pair (2i, 2i+1) is already
		// hashed: each kernel call reads its 32 hashes before it writes
		// its 16, and later calls read past what it wrote.
		half := len(level) / 2
		for i := hashNodes(level[:half], level); i < half; i++ {
			level[i] = nodeHash(&level[2*i], &level[2*i+1])
		}
		if len(level)%2 == 1 {
			level[half] = level[len(level)-1]
		}
		level = level[:(len(level)+1)/2]
	}
	return level[0]
}

// minPairsPerPiece is the share of a level handed to a goroutine at a
// time, ~50 us of hashing 16 nodes to a kernel call (~50 ns a node). A
// level no wider hashes inline, so only trees past 2048 leaves pay for
// a fan-out at all. Measured on NewMerkleTree over 16 384 leaves (2-core
// Xeon, AVX-512F): 1 P reads ~1.0 ms at every grain from 256 to 8192
// pairs; 2 P reads 0.83-0.94 ms at 256 and 512, 0.90-0.97 at 1024 and
// 2048, and 1.0-1.1 with no fan-out. 512 is within that noise of 1024
// but fans out one more level, a FanOut's allocations more per tree.
const minPairsPerPiece = 1024

// hashLevel fills next[i] with the node over level[2i] and level[2i+1]:
// 16 nodes to a kernel call where the CPU has AVX-512F, each call's
// pairs staged as node messages (hashNodes), and the rest through
// nodeHash. A level of one piece is hashed here, before any closure is
// built, so the narrow levels of every tree cost no allocation; a wider
// one is cut into such pieces of next, each reading only its own pairs
// of level.
func hashLevel(next, level []MerkleHash) {
	if len(next) > minPairsPerPiece {
		// No piece fails, so FanOut returns nil.
		_ = tuning.FanOut(len(next), minPairsPerPiece, nil, func(_ struct{}, lo, hi int) error {
			hashLevel(next[lo:hi], level[2*lo:2*hi])
			return nil
		})
		return
	}
	for i := hashNodes(next, level); i < len(next); i++ {
		next[i] = nodeHash(&level[2*i], &level[2*i+1])
	}
}

// NumLeaves returns the leaf count the tree was built over.
func (t *MerkleTree) NumLeaves() int { return len(t.levels[0]) }

// Root returns the tree's root hash.
func (t *MerkleTree) Root() MerkleHash {
	return t.levels[len(t.levels)-1][0]
}

// AppendProof appends leaf i's inclusion proof (the sibling hash at
// each level where one exists, leaf level first) to dst and returns
// the extended slice. Proof length is at most ceil(log2(NumLeaves)).
func (t *MerkleTree) AppendProof(dst []MerkleHash, i int) []MerkleHash {
	if i < 0 || i >= t.NumLeaves() {
		panic("keys: Merkle proof index out of range")
	}
	for _, level := range t.levels[:len(t.levels)-1] {
		if sib := i ^ 1; sib < len(level) {
			dst = append(dst, level[sib])
		}
		i >>= 1
	}
	return dst
}

// VerifyMerkleProof recomputes the root implied by leaf sitting at
// position index of a numLeaves-leaf tree with the given sibling
// proof. ok is false when the proof length does not match the position
// (too short, too long, or an out-of-range index): a false proof never
// yields a usable root.
func VerifyMerkleProof(leaf MerkleHash, index, numLeaves int, proof []MerkleHash) (root MerkleHash, ok bool) {
	if index < 0 || index >= numLeaves || numLeaves < 1 {
		return MerkleHash{}, false
	}
	h := leaf
	p := 0
	for numLeaves > 1 {
		if sib := index ^ 1; sib < numLeaves {
			if p >= len(proof) {
				return MerkleHash{}, false
			}
			if index&1 == 0 {
				h = nodeHash(&h, &proof[p])
			} else {
				h = nodeHash(&proof[p], &h)
			}
			p++
		}
		index >>= 1
		numLeaves = (numLeaves + 1) / 2
	}
	if p != len(proof) {
		return MerkleHash{}, false
	}
	return h, true
}

// SignRoot signs a Merkle root: one RSA signature covering every
// packet of the interval.
func (s *Signer) SignRoot(root MerkleHash) ([]byte, error) {
	return s.Sign(root[:])
}

// VerifyRoot checks an interval root signature without caching.
func VerifyRoot(pub *rsa.PublicKey, root MerkleHash, sig []byte) error {
	return Verify(pub, root[:], sig)
}

// rootCacheSize bounds the RootVerifier's verified-root memory. Rekey
// message IDs wrap at 64, and a member only ever straddles a few
// intervals, so a handful of entries already gives a ~100% hit rate
// after the first packet of each interval.
const rootCacheSize = 8

// RootVerifier amortizes interval signature checks: the first packet
// of an interval pays the RSA verification of the signed root, every
// later packet whose proof recomputes the same root is a cache hit.
// It is safe for concurrent use.
type RootVerifier struct {
	pub *rsa.PublicKey

	mu sync.Mutex
	// cache is a tiny FIFO-evicted set of verified roots.
	cache [rootCacheSize]MerkleHash
	used  int
	next  int
}

// NewRootVerifier returns a verifier trusting the given public key.
func NewRootVerifier(pub *rsa.PublicKey) *RootVerifier {
	return &RootVerifier{pub: pub}
}

// Public returns the trusted public key.
func (v *RootVerifier) Public() *rsa.PublicKey { return v.pub }

// VerifyRoot checks sig over root, consulting and filling the verified
// cache. cached reports whether the RSA check was skipped.
func (v *RootVerifier) VerifyRoot(root MerkleHash, sig []byte) (cached bool, err error) {
	v.mu.Lock()
	for i := 0; i < v.used; i++ {
		if v.cache[i] == root {
			v.mu.Unlock()
			return true, nil
		}
	}
	v.mu.Unlock()
	if err := VerifyRoot(v.pub, root, sig); err != nil {
		return false, err
	}
	v.mu.Lock()
	v.cache[v.next] = root
	v.next = (v.next + 1) % rootCacheSize
	if v.used < rootCacheSize {
		v.used++
	}
	v.mu.Unlock()
	return false, nil
}
