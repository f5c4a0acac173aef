//go:build !amd64 || purego

package keys

const hasAVX512 = false

func tagWords(b *WrapBatch) { tagsGeneric(b) }
