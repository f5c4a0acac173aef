package keys

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

func merkleLeaves(rng *rand.Rand, n int) []MerkleHash {
	leaves := make([]MerkleHash, n)
	for i := range leaves {
		var body [32]byte
		for j := range body {
			body[j] = byte(rng.Uint32())
		}
		leaves[i] = LeafHash(DomainENC, body[:])
	}
	return leaves
}

// refNodeHash is the interior-node hash as the format states it,
// H(0x01 || left || right), streamed; nodeHash is held to it.
func refNodeHash(left, right *MerkleHash) MerkleHash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out MerkleHash
	h.Sum(out[:0])
	return out
}

// refRoot recomputes the root by straightforward level reduction,
// independent of the MerkleTree structure.
func refRoot(level []MerkleHash) MerkleHash {
	for len(level) > 1 {
		var next []MerkleHash
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, refNodeHash(&level[i], &level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

func TestMerkleProofsAllLeavesAllSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 46, 47, 64, 100} {
		leaves := merkleLeaves(rng, n)
		tree := NewMerkleTree(leaves)
		if tree.NumLeaves() != n {
			t.Fatalf("NumLeaves = %d, want %d", tree.NumLeaves(), n)
		}
		if want := refRoot(leaves); tree.Root() != want {
			t.Fatalf("n=%d: root mismatch vs reference reduction", n)
		}
		for i := 0; i < n; i++ {
			proof := tree.AppendProof(nil, i)
			root, ok := VerifyMerkleProof(leaves[i], i, n, proof)
			if !ok || root != tree.Root() {
				t.Fatalf("n=%d leaf %d: proof did not verify (ok=%v)", n, i, ok)
			}
			// Tampered leaf must yield a different root.
			bad := leaves[i]
			bad[0] ^= 1
			root, ok = VerifyMerkleProof(bad, i, n, proof)
			if ok && root == tree.Root() {
				t.Fatalf("n=%d leaf %d: tampered leaf reproduced the root", n, i)
			}
			// Wrong position must not verify to the same root.
			if n > 1 {
				j := (i + 1) % n
				root, ok = VerifyMerkleProof(leaves[i], j, n, proof)
				if ok && root == tree.Root() {
					t.Fatalf("n=%d: leaf %d verified at position %d", n, i, j)
				}
			}
			// Truncated and extended proofs are rejected outright.
			if len(proof) > 0 {
				if _, ok := VerifyMerkleProof(leaves[i], i, n, proof[:len(proof)-1]); ok {
					t.Fatalf("n=%d leaf %d: truncated proof accepted", n, i)
				}
			}
			if _, ok := VerifyMerkleProof(leaves[i], i, n, append(append([]MerkleHash(nil), proof...), MerkleHash{})); ok {
				t.Fatalf("n=%d leaf %d: extended proof accepted", n, i)
			}
		}
	}
}

// TestMerkleTreeWorkersSameTree: every level of the tree, hence the
// root and every proof, is the same at any GOMAXPROCS, at widths
// below, at and just past where a level starts to fan out, odd ones
// (a promoted lone node next to a piece's last pair) included.
func TestMerkleTreeWorkersSameTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 3, 1023, 2*minPairsPerPiece*2 - 1, 2 * minPairsPerPiece * 2, 4097, 6*minPairsPerPiece + 3, 16385} {
		leaves := merkleLeaves(rng, n)
		want := refRoot(leaves)
		runtime.GOMAXPROCS(1)
		serial := NewMerkleTree(leaves)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			tree := NewMerkleTree(leaves)
			if tree.Root() != want {
				t.Fatalf("n=%d procs=%d: root differs from the reference reduction", n, procs)
			}
			if len(tree.levels) != len(serial.levels) {
				t.Fatalf("n=%d procs=%d: %d levels, serial build has %d", n, procs, len(tree.levels), len(serial.levels))
			}
			for l := range tree.levels {
				if !slices.Equal(tree.levels[l], serial.levels[l]) {
					t.Fatalf("n=%d procs=%d: level %d differs from the serial build", n, procs, l)
				}
			}
		}
		// The tree owns its leaves: the caller's slice may be reused.
		leaves[0][0] ^= 1
		if serial.Root() != want {
			t.Fatalf("n=%d: tree aliases the caller's leaves", n)
		}
	}
}

// buildTrees is BuildMerkleTrees over a copy of leaves.
func buildTrees(leaves []MerkleHash, width int) []MerkleTree {
	trees, err := BuildMerkleTrees(len(leaves), width, func(level []MerkleHash) error {
		copy(level, leaves)
		return nil
	})
	if err != nil {
		panic(err)
	}
	return trees
}

// checkInPlace holds the in-place constructors to NewMerkleTree over the
// same leaves: BuildMerkleTrees at full width builds the same levels,
// at the given width, over the leaves' longest prefix of whole runs, it
// builds the reference tree over every run, each with its leaves as
// filled, and MerkleRoot reduces a copy to the same root.
func checkInPlace(t *testing.T, leaves []MerkleHash, width int) {
	t.Helper()
	n := len(leaves)
	want := NewMerkleTree(leaves)
	full := buildTrees(leaves, n)
	if len(full) != 1 || len(full[0].levels) != len(want.levels) {
		t.Fatalf("n=%d: BuildMerkleTrees at full width gave %d trees", n, len(full))
	}
	for l := range want.levels {
		if !slices.Equal(full[0].levels[l], want.levels[l]) {
			t.Fatalf("n=%d: level %d differs from NewMerkleTree's", n, l)
		}
	}
	if got := MerkleRoot(slices.Clone(leaves)); got != want.Root() {
		t.Fatalf("n=%d: MerkleRoot differs from NewMerkleTree's root", n)
	}
	leaves = leaves[:n-n%width]
	if len(leaves) == 0 {
		return
	}
	trees := buildTrees(leaves, width)
	if len(trees) != n/width {
		t.Fatalf("n=%d width=%d: %d trees", n, width, len(trees))
	}
	for i := range trees {
		run := leaves[i*width : (i+1)*width]
		if !slices.Equal(trees[i].levels[0], run) {
			t.Fatalf("n=%d width=%d: tree %d's leaves are not the ones filled", n, width, i)
		}
		if trees[i].Root() != refRoot(run) || trees[i].NumLeaves() != len(run) {
			t.Fatalf("n=%d width=%d: tree %d differs from the reference over its run", n, width, i)
		}
	}
}

// TestMerkleInPlaceMatchesNew: the in-place constructors build
// NewMerkleTree's trees at every GOMAXPROCS, at widths that promote a
// lone node, at and past where a level fans out, and at the USR
// subtree's size at build_16k's N.
func TestMerkleInPlaceMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 3, 5, 47, 255, 1023, 2*minPairsPerPiece + 1, 4*minPairsPerPiece + 7, 16385} {
		leaves := merkleLeaves(rng, n)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, width := range []int{1, 3, 10, 255, n} {
				checkInPlace(t, leaves, width)
			}
		}
	}
}

// TestMerkleInPlaceBlocksIndependent: the block trees share one slab,
// and building them never writes another block's leaves. Changing one
// block's leaves changes that block's root and no other.
func TestMerkleInPlaceBlocksIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for _, k := range []int{1, 2, 7, 8, 10, 255} {
		const blocks = 9
		leaves := merkleLeaves(rng, blocks*k)
		base := buildTrees(leaves, k)
		for b := range blocks {
			changed := slices.Clone(leaves)
			for s := range k {
				changed[b*k+s][s%HashSize] ^= 0x80
			}
			trees := buildTrees(changed, k)
			for i := range trees {
				if moved := trees[i].Root() != base[i].Root(); moved != (i == b) {
					t.Fatalf("k=%d: block %d's leaves changed, block %d's root moved=%v", k, b, i, moved)
				}
			}
		}
	}
}

// TestBuildMerkleTreesRejects: fill's error comes back, with no trees,
// and an empty or uneven leaf set panics.
func TestBuildMerkleTreesRejects(t *testing.T) {
	errFill := errors.New("fill failed")
	trees, err := BuildMerkleTrees(5, 5, func([]MerkleHash) error { return errFill })
	if !errors.Is(err, errFill) || trees != nil {
		t.Fatalf("BuildMerkleTrees = %v, %v; want no trees and the fill's error", trees, err)
	}
	for _, c := range [][2]int{{0, 1}, {4, 0}, {5, 2}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildMerkleTrees(%d, %d) did not panic", c[0], c[1])
				}
			}()
			_, _ = BuildMerkleTrees(c[0], c[1], func([]MerkleHash) error { return nil })
		}()
	}
}

// FuzzMerkleInPlace holds BuildMerkleTrees and MerkleRoot to
// NewMerkleTree and the reference reduction over fuzzer-chosen leaf
// counts, run widths and leaves.
func FuzzMerkleInPlace(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint64(0))
	f.Add(uint16(47), uint8(10), uint64(7))
	f.Add(uint16(2*minPairsPerPiece+1), uint8(255), uint64(99))
	f.Fuzz(func(t *testing.T, nRaw uint16, widthRaw uint8, seed uint64) {
		n := int(nRaw)%(4*minPairsPerPiece+64) + 1
		width := min(int(widthRaw)+1, n)
		leaves := merkleLeaves(rand.New(rand.NewPCG(seed, uint64(n))), n)
		checkInPlace(t, leaves, width)
		if got := MerkleRoot(slices.Clone(leaves)); got != refRoot(leaves) {
			t.Fatalf("n=%d: MerkleRoot differs from the reference reduction", n)
		}
	})
}

func TestMerkleProofLengthLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, n := range []int{1, 2, 46, 64, 1000, 4096} {
		tree := NewMerkleTree(merkleLeaves(rng, n))
		maxLen := 0
		for i := 0; i < n; i++ {
			if l := len(tree.AppendProof(nil, i)); l > maxLen {
				maxLen = l
			}
		}
		bound := 0
		for c := n; c > 1; c = (c + 1) / 2 {
			bound++
		}
		if maxLen > bound {
			t.Fatalf("n=%d: proof length %d exceeds ceil(log2) bound %d", n, maxLen, bound)
		}
	}
}

func TestLeafHashDomainSeparation(t *testing.T) {
	body := []byte("same bytes")
	if LeafHash(DomainENC, body) == LeafHash(DomainUSR, body) {
		t.Fatal("ENC and USR leaves collide on identical bodies")
	}
	// A leaf hash must differ from a plain hash of the same bytes and
	// from an interior node over them.
	plain := sha256.Sum256(body)
	if LeafHash(DomainENC, body) == plain {
		t.Fatal("leaf hash equals undomained SHA-256")
	}
}

func TestVerifyMerkleProofRejectsBadPositions(t *testing.T) {
	leaf := LeafHash(DomainENC, []byte("x"))
	if _, ok := VerifyMerkleProof(leaf, -1, 4, nil); ok {
		t.Fatal("negative index accepted")
	}
	if _, ok := VerifyMerkleProof(leaf, 4, 4, nil); ok {
		t.Fatal("index == numLeaves accepted")
	}
	if _, ok := VerifyMerkleProof(leaf, 0, 0, nil); ok {
		t.Fatal("zero-leaf tree accepted")
	}
	// Single-leaf tree: the leaf is the root, the proof is empty.
	root, ok := VerifyMerkleProof(leaf, 0, 1, nil)
	if !ok || root != leaf {
		t.Fatal("single-leaf proof failed")
	}
}

func TestRootVerifierCachesAcrossPackets(t *testing.T) {
	signer, err := NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	tree := NewMerkleTree(merkleLeaves(rng, 46))
	sig, err := signer.SignRoot(tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	v := NewRootVerifier(signer.Public())
	cached, err := v.VerifyRoot(tree.Root(), sig)
	if err != nil || cached {
		t.Fatalf("first verify: cached=%v err=%v, want fresh success", cached, err)
	}
	for i := 0; i < 10; i++ {
		cached, err = v.VerifyRoot(tree.Root(), sig)
		if err != nil || !cached {
			t.Fatalf("repeat verify %d: cached=%v err=%v, want cache hit", i, cached, err)
		}
	}
	// A different root with the same signature must fail and stay
	// uncached.
	other := tree.Root()
	other[0] ^= 1
	if _, err := v.VerifyRoot(other, sig); err == nil {
		t.Fatal("forged root accepted")
	}
	if cached, _ := v.VerifyRoot(tree.Root(), sig); !cached {
		t.Fatal("genuine root evicted by failed verification")
	}
}

func TestRootVerifierCacheEviction(t *testing.T) {
	signer, err := NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	v := NewRootVerifier(signer.Public())
	roots := make([]MerkleHash, rootCacheSize+2)
	for i := range roots {
		roots[i] = LeafHash(DomainENC, []byte{byte(i)})
		sig, err := signer.SignRoot(roots[i])
		if err != nil {
			t.Fatal(err)
		}
		if cached, err := v.VerifyRoot(roots[i], sig); err != nil || cached {
			t.Fatalf("root %d: cached=%v err=%v", i, cached, err)
		}
	}
	// The oldest roots have been evicted; the newest are still cached.
	sigLast, _ := signer.SignRoot(roots[len(roots)-1])
	if cached, _ := v.VerifyRoot(roots[len(roots)-1], sigLast); !cached {
		t.Fatal("most recent root not cached")
	}
	sig0, _ := signer.SignRoot(roots[0])
	if cached, _ := v.VerifyRoot(roots[0], sig0); cached {
		t.Fatal("evicted root still reported cached")
	}
}

// FuzzVerifyMerkleProof throws arbitrary positions and mutated proofs
// at the verifier: it must never reproduce the genuine root except for
// the genuine (leaf, index, proof) triple.
func FuzzVerifyMerkleProof(f *testing.F) {
	f.Add(uint8(5), uint8(2), uint8(0), uint8(0))
	f.Add(uint8(46), uint8(0), uint8(1), uint8(7))
	f.Add(uint8(1), uint8(0), uint8(0xff), uint8(31))
	f.Fuzz(func(t *testing.T, nRaw, iRaw, flip, flipPos uint8) {
		n := int(nRaw%64) + 1
		i := int(iRaw) % n
		rng := rand.New(rand.NewPCG(uint64(nRaw), uint64(iRaw)))
		leaves := merkleLeaves(rng, n)
		tree := NewMerkleTree(leaves)
		proof := tree.AppendProof(nil, i)
		root, ok := VerifyMerkleProof(leaves[i], i, n, proof)
		if !ok || root != tree.Root() {
			t.Fatalf("genuine proof rejected (n=%d i=%d)", n, i)
		}
		if flip != 0 && len(proof) > 0 {
			k := int(flipPos) % len(proof)
			proof[k][int(flipPos)%HashSize] ^= flip
			root, ok = VerifyMerkleProof(leaves[i], i, n, proof)
			if ok && root == tree.Root() {
				t.Fatalf("mutated proof reproduced root (n=%d i=%d)", n, i)
			}
		}
	})
}

// BenchmarkMerkleVerify pins the O(log n) claim: per-packet verify
// cost grows by one hash per doubling, not linearly.
func BenchmarkMerkleVerify(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	for _, n := range []int{64, 4096} {
		leaves := merkleLeaves(rng, n)
		tree := NewMerkleTree(leaves)
		proof := tree.AppendProof(nil, n/2)
		root := tree.Root()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, ok := VerifyMerkleProof(leaves[n/2], n/2, n, proof)
				if !ok || got != root {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

func BenchmarkMerkleBuild(b *testing.B) {
	// One leaf per ENC packet of a large interval, packet-sized bodies,
	// hashed as the server hashes them: the server-side per-interval
	// hashing cost.
	body := bytes.Repeat([]byte{0xa5}, 1027)
	for _, n := range []int{46, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			leaves := make([]MerkleHash, n)
			b.SetBytes(int64(n * len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var lb LeafBatch
				for j := range leaves {
					lb.Add(&leaves[j], DomainENC, body)
				}
				lb.Flush()
				tree := NewMerkleTree(leaves)
				_ = tree.Root()
			}
		})
	}
	// The USR subtree's tree half at build_16k's N: nodes only.
	b.Run("tree/n=16384", func(b *testing.B) {
		leaves := merkleLeaves(rand.New(rand.NewPCG(11, 11)), 16384)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = NewMerkleTree(leaves).Root()
		}
	})
}

// BenchmarkSignRootVsPerPacket contrasts one root signature per
// interval against the sign-per-packet cost it replaces.
func BenchmarkSignRootVsPerPacket(b *testing.B) {
	signer, err := NewSigner(1024)
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.Repeat([]byte{0x3c}, 1027)
	const pkts = 46
	b.Run("interval-merkle", func(b *testing.B) {
		leaves := make([]MerkleHash, pkts)
		for i := 0; i < b.N; i++ {
			for j := range leaves {
				leaves[j] = LeafHash(DomainENC, body)
			}
			tree := NewMerkleTree(leaves)
			if _, err := signer.SignRoot(tree.Root()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-packet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < pkts; j++ {
				if _, err := signer.Sign(body); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
