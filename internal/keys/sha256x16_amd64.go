//go:build amd64 && !purego

package keys

// cpuHasAVX512F reports whether the CPU has AVX512F and the OS saves
// the state it needs: CPUID.7.0:EBX[16], OSXSAVE and XCR0 bits 1, 2, 5,
// 6 and 7.
func cpuHasAVX512F() bool

// hasAVX512 is fixed at init and never written again: dispatch has no
// mutable state. Both 16-lane SHA-256 kernels, the wrap tags' and the
// Merkle hashes', run on it.
var hasAVX512 = cpuHasAVX512F()

// hashBlocksAVX512 sets out[i] to the SHA-256 of the first blocks[i]
// padded blocks of msgs[i], for every lane with blocks[i] > 0; maxBlocks
// is the largest blocks[i].
//
//go:noescape
func hashBlocksAVX512(msgs *[hashLanes][laneBytes]byte, blocks *[hashLanes]uint32, maxBlocks int, out *[hashLanes]MerkleHash)

func hashStaged(b *LeafBatch) {
	if b.n < minKernelLanes {
		hashStagedGeneric(b)
		return
	}
	hashStagedAVX512(b)
}

// hashStagedAVX512 hashes the staged lanes in one kernel call, however
// few they are.
func hashStagedAVX512(b *LeafBatch) {
	hashBlocksAVX512(&b.msg, &b.blocks, b.maxBlocks, &b.sums)
	for i, out := range b.out[:b.n] {
		*out = b.sums[i]
	}
}

// nodesAVX512 sets out[i] to the node hash over pairs[2i] and
// pairs[2i+1], for all 16 lanes.
//
//go:noescape
func nodesAVX512(pairs *[2 * hashLanes]MerkleHash, out *[hashLanes]MerkleHash)

// hashNodes fills next[i] with the node over level[2i] and level[2i+1]
// for the longest prefix of next that fills whole kernel calls, and
// returns its length.
func hashNodes(next, level []MerkleHash) int {
	if !hasAVX512 {
		return 0
	}
	i := 0
	for ; i+hashLanes <= len(next); i += hashLanes {
		nodesAVX512((*[2 * hashLanes]MerkleHash)(level[2*i:]), (*[hashLanes]MerkleHash)(next[i:]))
	}
	return i
}
