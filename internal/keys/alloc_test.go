package keys

import "testing"

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): the batch pipeline's wraps, 16
// to a tag-kernel call, a member's per-key unwrap and re-keying its
// context allocate nothing, through the AES block and both HMAC passes;
// and the two Merkle hashes, which the server pays per user and per
// tree node and a member per proof level, allocate nothing at all.
// Without the AES-NI kernel (other CPUs and GOARCHes, -tags purego)
// each block builds one crypto/aes key schedule.
func TestHotPathAllocs(t *testing.T) {
	ks, err := NewDeterministicGenerator(3).NewKeys(2 * tagLanes)
	if err != nil {
		t.Fatal(err)
	}
	w, inner := NewWrapContext(ks[0]), ks[tagLanes]
	outs := make([][WrappedSize]byte, tagLanes)
	out := &outs[0]
	schedule := 0.0
	if !hasAES {
		schedule = 1
	}
	var left, right, node MerkleHash
	datagram := make([]byte, 1027)
	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"WrapBatch, 16 edges", tagLanes * schedule, func() {
			var b WrapBatch
			for i := range outs {
				b.Add(&outs[i], &ks[i], &ks[tagLanes+i])
			}
			b.Flush()
		}},
		{"WrapBatch, 3 edges", 3 * schedule, func() {
			var b WrapBatch
			for i := range 3 {
				b.Add(&outs[i], &ks[i], &ks[tagLanes+i])
			}
			b.Flush()
		}},
		{"WrapContext.tag", 0, func() { w.tag(out[:KeySize]) }},
		{"WrapContext.Unwrap", schedule, func() {
			if k, err := w.Unwrap(*out); err != nil || k != inner {
				t.Fatalf("Unwrap = %v, %v; want the wrapped key", k, err)
			}
		}},
		{"WrapContext.SetKey", 0, func() { w.SetKey(ks[0]) }},
		{"nodeHash", 0, func() { node = nodeHash(&left, &right) }},
		{"LeafHash", 0, func() { left = LeafHash(DomainENC, datagram) }},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
	if node == (MerkleHash{}) {
		t.Fatal("nodeHash returned the zero hash")
	}
}
