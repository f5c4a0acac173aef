package blockplan

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestPartitionBasics(t *testing.T) {
	p, err := NewPartition(107, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 11 {
		t.Fatalf("NumBlocks = %d, want 11", p.NumBlocks())
	}
	if p.TotalSlots() != 110 {
		t.Fatalf("TotalSlots = %d, want 110", p.TotalSlots())
	}
	if p.Duplicates() != 3 {
		t.Fatalf("Duplicates = %d, want 3", p.Duplicates())
	}
}

func TestPartitionExactFit(t *testing.T) {
	p, _ := NewPartition(100, 10)
	if p.Duplicates() != 0 {
		t.Fatalf("exact fit has %d duplicates", p.Duplicates())
	}
	for i := 0; i < 100; i++ {
		blk, seq := p.Slot(i)
		if p.RealIndex(blk, seq) != i {
			t.Fatalf("slot round trip failed for %d", i)
		}
		if p.IsDuplicate(blk, seq) {
			t.Fatalf("slot %d marked duplicate", i)
		}
	}
}

func TestPartitionRejects(t *testing.T) {
	if _, err := NewPartition(10, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewPartition(-1, 5); err == nil {
		t.Error("negative packet count accepted")
	}
}

func TestDuplicatesResolveRoundRobin(t *testing.T) {
	// 7 real packets in the last block of k=10: slots 7,8,9 duplicate
	// packets 0,1,2 of that block (round-robin).
	p, _ := NewPartition(107, 10)
	lastBlk := 10
	for s := 7; s < 10; s++ {
		if !p.IsDuplicate(lastBlk, s) {
			t.Fatalf("slot (%d,%d) not marked duplicate", lastBlk, s)
		}
		want := 100 + (s - 7)
		if got := p.RealIndex(lastBlk, s); got != want {
			t.Fatalf("RealIndex(%d,%d) = %d, want %d", lastBlk, s, got, want)
		}
	}
	// All real slots resolve to themselves.
	for i := 0; i < 107; i++ {
		blk, seq := p.Slot(i)
		if p.RealIndex(blk, seq) != i {
			t.Fatalf("real slot %d resolves to %d", i, p.RealIndex(blk, seq))
		}
	}
}

func TestSingleBlockSmallerThanK(t *testing.T) {
	p, _ := NewPartition(3, 10)
	if p.NumBlocks() != 1 || p.Duplicates() != 7 {
		t.Fatalf("blocks=%d dups=%d", p.NumBlocks(), p.Duplicates())
	}
	wantReal := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	for s := 0; s < 10; s++ {
		if got := p.RealIndex(0, s); got != wantReal[s] {
			t.Fatalf("RealIndex(0,%d) = %d, want %d", s, got, wantReal[s])
		}
	}
}

func TestInterleaveOrder(t *testing.T) {
	refs := Interleave([][]int{{0, 1}, {0, 1, 2}, {5}})
	want := []Ref{{0, 0}, {1, 0}, {2, 5}, {0, 1}, {1, 1}, {1, 2}}
	if len(refs) != len(want) {
		t.Fatalf("got %d refs, want %d", len(refs), len(want))
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("ref %d = %v, want %v", i, refs[i], want[i])
		}
	}
}

func TestInterleaveSeparatesSameBlock(t *testing.T) {
	// In the round-one order, two shards of the same block must be at
	// least NumBlocks positions apart.
	p, _ := NewPartition(100, 10)
	refs := RoundOne(p, 1.4)
	lastPos := map[int]int{}
	for pos, r := range refs {
		if prev, ok := lastPos[r.Block]; ok {
			if pos-prev < p.NumBlocks() {
				t.Fatalf("same-block refs %d apart (< %d blocks)", pos-prev, p.NumBlocks())
			}
		}
		lastPos[r.Block] = pos
	}
}

func TestRoundOneCounts(t *testing.T) {
	p, _ := NewPartition(100, 10)
	for _, tc := range []struct {
		rho  float64
		want int // shards per block
	}{{1.0, 10}, {1.05, 11}, {1.6, 16}, {2.0, 20}, {0.5, 10}} {
		refs := RoundOne(p, tc.rho)
		if len(refs) != tc.want*p.NumBlocks() {
			t.Errorf("rho=%v: %d refs, want %d", tc.rho, len(refs), tc.want*p.NumBlocks())
		}
	}
}

func TestProactiveParity(t *testing.T) {
	for _, tc := range []struct {
		k    int
		rho  float64
		want int
	}{{10, 1, 0}, {10, 1.2, 2}, {10, 1.25, 3}, {10, 2, 10}, {1, 1.5, 1}, {10, 0.8, 0}} {
		if got := ProactiveParity(tc.k, tc.rho); got != tc.want {
			t.Errorf("ProactiveParity(%d,%v) = %d, want %d", tc.k, tc.rho, got, tc.want)
		}
	}
}

// buildHeaders fabricates a rekey message's ENC headers for estimation
// tests: users 1..numUsers get one packet each batch of usersPerPkt.
// userBlk maps user ID to its packet's block; userIdx to the packet's
// index in generation order.
func buildHeaders(numUsers, usersPerPkt, k, d int) (headers []packet.ENCHeader, userBlk, userIdx map[int]int, numReal int) {
	userPkt := make(map[int]int)
	maxKID := numUsers / 2 // arbitrary but consistent: user IDs > maxKID
	var pkts []packet.ENCHeader
	for u := 0; u < numUsers; u += usersPerPkt {
		hi := u + usersPerPkt - 1
		if hi >= numUsers {
			hi = numUsers - 1
		}
		pkts = append(pkts, packet.ENCHeader{
			FrmID:  uint16(maxKID + 1 + u),
			ToID:   uint16(maxKID + 1 + hi),
			MaxKID: uint16(maxKID),
		})
		for x := u; x <= hi; x++ {
			userPkt[maxKID+1+x] = len(pkts) - 1
		}
	}
	p, _ := NewPartition(len(pkts), k)
	headers = make([]packet.ENCHeader, p.TotalSlots())
	for i := 0; i < p.TotalSlots(); i++ {
		blk, seq := i/k, i%k
		src := p.RealIndex(blk, seq)
		h := pkts[src]
		h.BlockID, h.Seq = uint8(blk), uint8(seq)
		h.Dup = p.IsDuplicate(blk, seq)
		headers[i] = h
	}
	userBlk = make(map[int]int, len(userPkt))
	userIdx = make(map[int]int, len(userPkt))
	for u, pi := range userPkt {
		blk, _ := p.Slot(pi)
		userBlk[u] = blk
		userIdx[u] = pi
	}
	return headers, userBlk, userIdx, len(pkts)
}

func TestEstimatorExactWithFullReception(t *testing.T) {
	const k, d = 10, 4
	headers, userBlk, userIdx, numReal := buildHeaders(200, 3, k, d)
	for m, wantBlk := range userBlk {
		e := NewEstimator()
		for _, h := range headers {
			// The user's own packet was lost; everything else received.
			if !h.Dup && int(h.FrmID) <= m && m <= int(h.ToID) {
				continue
			}
			e.Observe(m, h, k, d)
		}
		if wantBlk < e.Low || wantBlk > e.High {
			t.Fatalf("user %d: true block %d outside [%d,%d]", m, wantBlk, e.Low, e.High)
		}
		// Exactness holds whenever a real (non-duplicate) packet follows
		// the user's in generation order; the last packet's users can
		// only bound a range because their successor set Su contains
		// only padding duplicates, which estimation excludes.
		if userIdx[m]+1 < numReal && !e.Exact() {
			t.Fatalf("user %d: bounds [%d,%d] not exact with only its own packet lost", m, e.Low, e.High)
		}
		if e.Exact() && e.Low != wantBlk {
			t.Fatalf("user %d: estimated block %d, want %d", m, e.Low, wantBlk)
		}
	}
}

func TestEstimatorRangeAlwaysContainsTruth(t *testing.T) {
	const k, d = 10, 4
	headers, userBlk, _, _ := buildHeaders(300, 4, k, d)
	rng := rand.New(rand.NewPCG(11, 22))
	for trial := 0; trial < 300; trial++ {
		// Random loss pattern, including the user's own packet.
		var m, wantBlk int
		for m, wantBlk = range userBlk {
			break // any user; map iteration randomises
		}
		e := NewEstimator()
		for _, h := range headers {
			if int(h.FrmID) <= m && m <= int(h.ToID) && !h.Dup {
				continue // specific packet always lost in this test
			}
			if rng.Float64() < 0.5 {
				continue // lost
			}
			e.Observe(m, h, k, d)
		}
		if wantBlk < e.Low || wantBlk > e.High {
			t.Fatalf("user %d: true block %d outside [%d,%d]", m, wantBlk, e.Low, e.High)
		}
	}
}

func TestEstimatorDirectHit(t *testing.T) {
	const k, d = 10, 4
	headers, userBlk, _, _ := buildHeaders(100, 5, k, d)
	for m, wantBlk := range userBlk {
		e := NewEstimator()
		for _, h := range headers {
			e.Observe(m, h, k, d)
		}
		if !e.Exact() || e.Low != wantBlk {
			t.Fatalf("user %d: [%d,%d], want exactly %d", m, e.Low, e.High, wantBlk)
		}
	}
}

func TestEstimatorRule6BoundsHigh(t *testing.T) {
	// Even observing a single early packet must yield a finite upper
	// bound (step 6 of the algorithm).
	e := NewEstimator()
	e.Observe(900, packet.ENCHeader{BlockID: 0, Seq: 0, FrmID: 101, ToID: 110, MaxKID: 100}, 10, 4)
	if e.High == math.MaxInt {
		t.Fatal("upper bound still infinite after observing a packet below the user")
	}
	if e.Low != 0 {
		t.Fatalf("low = %d, want 0", e.Low)
	}
}

func TestEstimatorIgnoresDuplicates(t *testing.T) {
	e := NewEstimator()
	dup := packet.ENCHeader{BlockID: 5, Seq: 9, FrmID: 50, ToID: 60, MaxKID: 40, Dup: true}
	e.Observe(55, dup, 10, 4)
	if e.Exact() {
		t.Fatal("duplicate header collapsed the estimate")
	}
}

func TestQuickInterleaveIsPermutation(t *testing.T) {
	f := func(seed uint64, nBlocksRaw, perRaw uint8) bool {
		nBlocks := int(nBlocksRaw)%8 + 1
		rng := rand.New(rand.NewPCG(seed, 7))
		perBlock := make([][]int, nBlocks)
		total := 0
		for b := range perBlock {
			n := rng.IntN(int(perRaw)%10 + 1)
			for s := 0; s < n; s++ {
				perBlock[b] = append(perBlock[b], s)
			}
			total += n
		}
		refs := Interleave(perBlock)
		if len(refs) != total {
			return false
		}
		seen := map[Ref]bool{}
		for _, r := range refs {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
