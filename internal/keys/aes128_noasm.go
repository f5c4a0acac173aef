//go:build !amd64 || purego

package keys

const hasAES = false

func encryptBlock(key *Key, dst, src *[KeySize]byte) { encryptBlockGeneric(key, dst, src) }

func decryptBlock(key *Key, dst, src *[KeySize]byte) { decryptBlockGeneric(key, dst, src) }
