package keys

import "testing"

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): the batch pipeline's wraps, 16
// to a kernel call a pass, a member's per-key unwrap and re-keying its
// context allocate nothing, through the AES block and hmacSum's two
// passes; the two Merkle hashes, which the server pays per user and per
// tree node and a member per proof level, and the server's leaf batch,
// 16 leaves to a kernel call or a short Flush, allocate nothing at all;
// a tree of 1024 leaves, its levels hashed 16 nodes to a kernel call,
// makes only its slab, its level index and itself, and one reduced in
// place, as a member checks a decoded block, makes nothing.
// Without the AES-NI kernel (other CPUs and GOARCHes, -tags purego)
// each block builds one crypto/aes key schedule.
func TestHotPathAllocs(t *testing.T) {
	ks, err := NewDeterministicGenerator(3).NewKeys(2 * hashLanes)
	if err != nil {
		t.Fatal(err)
	}
	w, inner := NewWrapContext(ks[0]), ks[hashLanes]
	outs := make([][WrappedSize]byte, hashLanes)
	out := &outs[0]
	schedule := 0.0
	if !hasAES {
		schedule = 1
	}
	var left, right, node, tag MerkleHash
	datagram := make([]byte, 1027)
	usr := make([]byte, 145)
	leaves := make([]MerkleHash, 1024)
	sums := make([]MerkleHash, hashLanes)
	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"WrapBatch, 16 edges", hashLanes * schedule, func() {
			var b WrapBatch
			for i := range outs {
				b.Add(&outs[i], &ks[i], &ks[hashLanes+i])
			}
			b.Flush()
		}},
		{"WrapBatch, 3 edges", 3 * schedule, func() {
			var b WrapBatch
			for i := range 3 {
				b.Add(&outs[i], &ks[i], &ks[hashLanes+i])
			}
			b.Flush()
		}},
		{"hmacSum", 0, func() { tag = hmacSum(&ks[0], (*[KeySize]byte)(out[:KeySize])) }},
		{"WrapContext.Unwrap", schedule, func() {
			if k, err := w.Unwrap(*out); err != nil || k != inner {
				t.Fatalf("Unwrap = %v, %v; want the wrapped key", k, err)
			}
		}},
		{"WrapContext.SetKey", 0, func() { w.SetKey(ks[0]) }},
		{"nodeHash", 0, func() { node = nodeHash(&left, &right) }},
		{"LeafHash", 0, func() { left = LeafHash(DomainENC, datagram) }},
		{"LeafBatch, 16 USR leaves", 0, func() {
			var b LeafBatch
			for i := range sums {
				b.Add(&sums[i], DomainUSR, usr)
			}
			b.Flush()
		}},
		{"LeafBatch, 3 ENC leaves", 0, func() {
			var b LeafBatch
			for i := range 3 {
				b.Add(&sums[i], DomainENC, datagram)
			}
			b.Flush()
		}},
		{"NewMerkleTree, 1024 leaves", 3, func() { right = NewMerkleTree(leaves).Root() }},
		{"MerkleRoot, 1024 leaves", 0, func() { right = MerkleRoot(leaves) }},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
	if node == (MerkleHash{}) || tag == (MerkleHash{}) {
		t.Fatal("nodeHash or hmacSum returned the zero hash")
	}
}
