package keys

import "testing"

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): the per-key wrap of the batch
// pipeline allocates nothing once its context is keyed, through the AES
// block's interface call and both HMAC passes.
func TestHotPathAllocs(t *testing.T) {
	ks, err := NewDeterministicGenerator(3).NewKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	w, inner := NewWrapContext(ks[0]), ks[1]
	var out [WrappedSize]byte
	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"WrapContext.WrapInto", 0, func() { w.WrapInto(&out, inner) }},
		{"WrapContext.tag", 0, func() { w.tag(out[:KeySize]) }},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
}
