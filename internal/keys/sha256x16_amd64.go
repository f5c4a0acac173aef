//go:build amd64 && !purego

package keys

import (
	"crypto/sha256"
	"encoding/binary"
)

// cpuHasAVX512F reports whether the CPU has AVX512F and the OS saves
// the state it needs: CPUID.7.0:EBX[16], OSXSAVE and XCR0 bits 1, 2, 5,
// 6 and 7.
func cpuHasAVX512F() bool

// hasAVX512 is fixed at init and never written again: dispatch has no
// mutable state. The 16-lane kernel runs on it for the wrap tags and
// the Merkle hashes alike.
var hasAVX512 = cpuHasAVX512F()

// hashBlocksAVX512 sets out[i] to the SHA-256 of the first blocks[i]
// padded blocks of the row at msgs+i*stride, for every lane with
// blocks[i] > 0; maxBlocks is the largest blocks[i], and every row
// holds that many blocks. It zeroes its frame before it returns.
//
//go:noescape
func hashBlocksAVX512(msgs *byte, stride int, blocks *[hashLanes]uint32, maxBlocks int, out *[hashLanes]MerkleHash)

// pairRow is the row of a two-block message: a node's, and either pass
// of a wrap tag's HMAC.
const pairRow = 2 * sha256.BlockSize

// twoBlocks is the blocks argument of a call whose lanes all hash
// two-block messages.
var twoBlocks = [hashLanes]uint32{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}

// padRow writes SHA-256's padding of an l-byte message into row: the
// 0x80 marker after it and the bit length in the row's last 8 bytes.
// The bytes between are the row's zeros.
func padRow(row *[pairRow]byte, l int) {
	row[l] = 0x80
	binary.BigEndian.PutUint64(row[pairRow-8:], uint64(l)*8)
}

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
	hashBlocksAVX512(&b.msg[0][0], laneBytes, &b.blocks, b.maxBlocks, &b.sums)
	for i, out := range b.out[:b.n] {
		*out = b.sums[i]
	}
}

// hashNodes fills next[i] with the node over level[2i] and level[2i+1]
// for the longest prefix of next that fills whole kernel calls, and
// returns its length. Each call's 16 messages 0x01 || left || right are
// staged in rows on this frame, whose constant bytes are written once;
// a call reads its 32 hashes into the rows before it writes its 16
// nodes, so next may be level's own prefix.
func hashNodes(next, level []MerkleHash) int {
	if !hasAVX512 || len(next) < hashLanes {
		return 0
	}
	var rows [hashLanes][pairRow]byte
	for j := range rows {
		rows[j][0] = 0x01
		padRow(&rows[j], 1+2*HashSize)
	}
	i := 0
	for ; i+hashLanes <= len(next); i += hashLanes {
		for j := range rows {
			*(*MerkleHash)(rows[j][1:]) = level[2*(i+j)]
			*(*MerkleHash)(rows[j][1+HashSize:]) = level[2*(i+j)+1]
		}
		hashBlocksAVX512(&rows[0][0], pairRow, &twoBlocks, 2, (*[hashLanes]MerkleHash)(next[i:]))
	}
	return i
}

// tagStage holds a WrapBatch's HMAC messages as the kernel reads them,
// one two-block row a lane: inner[i] is key^ipad || ct and outer[i]
// key^opad || h, each padded. The pad bytes past the key and SHA-256's
// padding are the same in every call: the first Flush writes them, and
// each writes only the key, ct and h bytes after that.
type tagStage struct {
	ready        bool
	inner, outer [hashLanes][pairRow]byte
	sums         [hashLanes]MerkleHash // the last call's digests
}

// tagWords sets b.tags[i] to the first word of lane i's HMAC: on the
// kernel, a call for the 16 lanes' inner hashes and one for their outer.
func tagWords(b *WrapBatch) {
	if !hasAVX512 {
		tagsGeneric(b)
		return
	}
	s := &b.stage
	if !s.ready {
		for j := range hashLanes {
			copy(s.inner[j][:], ipad0[:])
			copy(s.outer[j][:], opad0[:])
			padRow(&s.inner[j], hmacBlockSize+KeySize)
			padRow(&s.outer[j], hmacBlockSize+sha256.Size)
		}
		s.ready = true
	}
	for i := range b.n {
		xorPad(s.inner[i][:], &b.key[i], ipadWord)
		xorPad(s.outer[i][:], &b.key[i], opadWord)
		*(*[KeySize]byte)(s.inner[i][hmacBlockSize:]) = b.ct[i]
	}
	hashBlocksAVX512(&s.inner[0][0], pairRow, &twoBlocks, 2, &s.sums)
	for i := range b.n {
		*(*MerkleHash)(s.outer[i][hmacBlockSize:]) = s.sums[i]
	}
	hashBlocksAVX512(&s.outer[0][0], pairRow, &twoBlocks, 2, &s.sums)
	for i := range b.n {
		b.tags[i] = binary.BigEndian.Uint32(s.sums[i][:])
	}
}
