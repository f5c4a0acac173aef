package gf256

// refMulAddSlice is the original byte-at-a-time log/exp kernel, the
// reference MulAddSlice is held to.
func refMulAddSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: refMulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	lc := logTbl[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTbl[lc+logTbl[s]]
		}
	}
}
