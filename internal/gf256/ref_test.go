package gf256

// refMulSlice is the original byte-at-a-time log/exp kernel, the
// reference MulSlice is held to.
func refMulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: refMulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	lc := logTbl[c]
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTbl[lc+logTbl[s]]
		}
	}
}

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
