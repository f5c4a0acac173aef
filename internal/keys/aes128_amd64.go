//go:build amd64 && !purego

package keys

// cpuHasAES reports CPUID.1:ECX[25], the AES-NI instructions. The
// kernels also use SSSE3's PSHUFB, which every CPU with AES-NI has.
func cpuHasAES() bool

// hasAES is fixed at init and never written again: dispatch has no
// mutable state.
var hasAES = cpuHasAES()

// encryptBlockAESNI sets *dst to the AES-128 encryption of *src under
// key, deriving each round key in registers as the rounds use it.
//
//go:noescape
func encryptBlockAESNI(key *Key, dst, src *[KeySize]byte)

// decryptBlockAESNI sets *dst to the AES-128 decryption of *src under
// key, with every round key held in registers only.
//
//go:noescape
func decryptBlockAESNI(key *Key, dst, src *[KeySize]byte)

func encryptBlock(key *Key, dst, src *[KeySize]byte) {
	if hasAES {
		encryptBlockAESNI(key, dst, src)
		return
	}
	encryptBlockGeneric(key, dst, src)
}

func decryptBlock(key *Key, dst, src *[KeySize]byte) {
	if hasAES {
		decryptBlockAESNI(key, dst, src)
		return
	}
	decryptBlockGeneric(key, dst, src)
}
