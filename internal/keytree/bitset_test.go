package keytree

import (
	"math/rand/v2"
	"testing"

	"repro/internal/keys"
)

// TestBitsetNextMatchesScan checks next against a bit-by-bit scan over
// every start and several ends, in and past the allocated words.
func TestBitsetNextMatchesScan(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	var b bitset
	for range 40 {
		b.set(r.IntN(300))
	}
	b.set(0)
	b.set(63)
	b.set(64)
	for _, end := range []int{0, 1, 64, 65, 200, 320, 1000} {
		for i := 0; i <= end+2; i++ {
			want := end
			for j := i; j < end; j++ {
				if b.get(j) {
					want = j
					break
				}
			}
			if got := b.next(i, end); got != want {
				t.Fatalf("next(%d, %d) = %d, want %d", i, end, got, want)
			}
		}
	}
}

// TestUserBitsetFollowsKinds grows a tree through splits, shrinks it
// through prunes and refills it, checking after every batch that the
// u-node bitset marks exactly the u-nodes (CheckInvariant) and that the
// result's user IDs are the whole-array scan's. A bit set or cleared
// behind setNode's back must fail CheckInvariant.
func TestUserBitsetFollowsKinds(t *testing.T) {
	tr := New(4, keys.NewDeterministicGenerator(8))
	step := func(joins, leaves []Member) {
		t.Helper()
		res, err := tr.ProcessBatch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		want := tr.resultSeq().UserIDs
		if len(res.UserIDs) != len(want) {
			t.Fatalf("%d user IDs, whole-array scan finds %d", len(res.UserIDs), len(want))
		}
		for i := range want {
			if res.UserIDs[i] != want[i] {
				t.Fatalf("UserIDs[%d] = %d, whole-array scan %d", i, res.UserIDs[i], want[i])
			}
		}
		for i, m := range tr.Members() {
			if id, _ := tr.UserID(m); id != want[i] {
				t.Fatalf("Members()[%d] sits at %d, want %d", i, id, want[i])
			}
		}
	}
	joins := make([]Member, 1000)
	for i := range joins {
		joins[i] = Member(i)
	}
	step(joins, nil)
	step(nil, joins[16:])
	step([]Member{2000, 2001, 2002}, joins[:3])
	step(joins[100:400], nil)

	id, _ := tr.UserID(joins[100])
	tr.users.clear(id)
	if tr.CheckInvariant() == nil {
		t.Fatal("CheckInvariant missed a u-node the bitset does not mark")
	}
	tr.users.set(id)
	tr.users.set(tr.MaxKID())
	if tr.CheckInvariant() == nil {
		t.Fatal("CheckInvariant missed a k-node the bitset marks")
	}
	tr.users.clear(tr.MaxKID())
	tr.users.set(len(tr.nodes) + 70)
	if tr.CheckInvariant() == nil {
		t.Fatal("CheckInvariant missed a mark past the node array")
	}
}
