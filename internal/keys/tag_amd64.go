//go:build amd64 && !purego

package keys

// cpuHasAVX512F reports whether the CPU has AVX512F and the OS saves
// the state it needs: CPUID.7.0:EBX[16], OSXSAVE and XCR0 bits 1, 2, 5,
// 6 and 7.
func cpuHasAVX512F() bool

// hasAVX512 is fixed at init and never written again: dispatch has no
// mutable state.
var hasAVX512 = cpuHasAVX512F()

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
