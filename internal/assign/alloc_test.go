package assign

import (
	"math/bits"
	"testing"
)

var sinkMap map[int]int

// TestBuildAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): Build's only map is the
// UserPacket it returns. Beside what filling a map of that size costs,
// it allocates the plan, the stamp array and the two slabs every
// packet's EncIDs and encIdx are cut from once, and the doublings of
// Packets -- nothing per user and nothing per packet. The users slab is
// the batch's UserIDs: no user of this batch is skipped.
func TestBuildAllocs(t *testing.T) {
	_, res := batch(t, 4096, 1024, 1024, 11)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	packets := len(plan.Packets)
	if packets < 50 {
		t.Fatalf("only %d packets: the batch is too small to tell per-packet from per-call", packets)
	}
	userPacket := testing.AllocsPerRun(10, func() {
		m := make(map[int]int, len(res.UserIDs))
		for _, u := range res.UserIDs {
			m[u] = 0
		}
		sinkMap = m
	})
	budget := userPacket + 4 + float64(bits.Len(uint(packets))+1)
	got := testing.AllocsPerRun(10, func() {
		if _, err := Build(res); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Build: %v allocs for %d users in %d packets, want at most %v (%v of them UserPacket)",
			got, len(res.UserIDs), packets, budget, userPacket)
	}
}
