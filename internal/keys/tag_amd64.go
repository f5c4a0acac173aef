//go:build amd64 && !purego

package keys

// tagsAVX512 sets tags[i] to the first word of HMAC-SHA256 under key[i]
// over ct[i], for all 16 lanes.
//
//go:noescape
func tagsAVX512(key *[tagLanes]Key, ct *[tagLanes][KeySize]byte, tags *[tagLanes]uint32)

func tagWords(b *WrapBatch) {
	if hasAVX512 {
		tagsAVX512(&b.key, &b.ct, &b.tags)
		return
	}
	tagsGeneric(b)
}
