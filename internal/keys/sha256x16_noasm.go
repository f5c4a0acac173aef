//go:build !amd64 || purego

package keys

const hasAVX512 = false

// tagStage is empty: only the 16-lane kernel stages tag messages.
type tagStage struct{}

func tagWords(b *WrapBatch) { tagsGeneric(b) }

func hashStaged(b *LeafBatch) { hashStagedGeneric(b) }

func hashNodes(next, level []MerkleHash) int { return 0 }
