//go:build amd64 && !purego

package gf256

// cpuHasSSSE3 reports CPUID.1:ECX[9]. PSHUFB on xmm registers needs no
// OS-enabled state beyond the SSE the Go runtime already requires.
func cpuHasSSSE3() bool

// hasSSSE3 is fixed at init and never written again: dispatch has no
// mutable state.
var hasSSSE3 = cpuHasSSSE3()

func kernelName() string {
	if hasSSSE3 {
		return "ssse3"
	}
	return "generic"
}

func cpuFeatureNames() []string {
	if hasSSSE3 {
		return []string{"ssse3"}
	}
	return nil
}

// mulAddVecSSSE3 sets dst[i] ^= c*src[i] for i in [0,n) where lo and hi
// are the nibble product tables of c. n must be a positive multiple of
// 16.
//
//go:noescape
func mulAddVecSSSE3(lo, hi *[16]byte, dst, src *byte, n int)

func mulAddKernel(dst, src []byte, c byte) {
	if n := len(src) &^ 15; n > 0 && hasSSSE3 {
		mulAddVecSSSE3(&mulTblLo[c], &mulTblHi[c], &dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	mulAddGeneric(dst, src, c)
}
