package gf256

import "testing"

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): every per-byte kernel, at the
// dispatch the build selects and at the portable fallback, allocates
// nothing. 1027 bytes is a rekey packet's FEC span: 64 SIMD lanes and
// a 3-byte tail, so the amd64 rows run the vector body and the generic
// tail; `-tags purego` runs the same table on the portable kernels.
func TestHotPathAllocs(t *testing.T) {
	dst, src := make([]byte, 1027), make([]byte, 1027)
	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"MulAddSlice -> xorSlice", 0, func() { MulAddSlice(dst, src, 1) }},
		{"MulAddSlice -> mulAddKernel", 0, func() { MulAddSlice(dst, src, 0x53) }},
		{"mulAddGeneric", 0, func() { mulAddGeneric(dst, src, 0x53) }},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
}
