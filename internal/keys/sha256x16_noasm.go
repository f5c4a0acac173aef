//go:build !amd64 || purego

package keys

const hasAVX512 = false

func tagWords(b *WrapBatch) { tagsGeneric(b) }

func hashStaged(b *LeafBatch) { hashStagedGeneric(b) }

func hashNodes(next, level []MerkleHash) int { return 0 }
