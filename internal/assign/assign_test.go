package assign

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/packet"
)

// batch builds an N-user tree and applies an L-leave, J-join batch.
func batch(t testing.TB, n, j, l int, seed uint64) (*keytree.Tree, *keytree.BatchResult) {
	t.Helper()
	tr := keytree.New(4, keys.NewDeterministicGenerator(seed))
	joins := make([]keytree.Member, n)
	for i := range joins {
		joins[i] = keytree.Member(i)
	}
	if _, err := tr.ProcessBatch(joins, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 77))
	members := tr.Members()
	perm := rng.Perm(len(members))
	leaves := make([]keytree.Member, l)
	for i := 0; i < l; i++ {
		leaves[i] = members[perm[i]]
	}
	extra := make([]keytree.Member, j)
	for i := range extra {
		extra[i] = keytree.Member(n + i)
	}
	res, err := tr.ProcessBatch(extra, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestEveryUserInExactlyOnePacket(t *testing.T) {
	tr, res := batch(t, 256, 16, 64, 1)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for pi, pp := range plan.Packets {
		if len(pp.EncIDs) > Capacity {
			t.Fatalf("packet %d carries %d encryptions", pi, len(pp.EncIDs))
		}
		for _, u := range pp.Users {
			seen[u]++
		}
	}
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		if seen[id] != 1 {
			t.Fatalf("user %d appears in %d packets", id, seen[id])
		}
		if _, ok := plan.UserPacket[id]; !ok {
			t.Fatalf("user %d missing from UserPacket", id)
		}
	}
}

func TestUserEncryptionsAllInItsPacket(t *testing.T) {
	// The UKA guarantee: every encryption a user needs is inside its
	// single specific packet.
	_, res := batch(t, 256, 0, 64, 2)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range plan.Packets {
		inPkt := map[uint32]bool{}
		for _, id := range pp.EncIDs {
			inPkt[id] = true
		}
		for _, u := range pp.Users {
			for _, need := range res.UserNeeds(u) {
				if !inPkt[need.ID] {
					t.Fatalf("user %d's encryption %d missing from its packet", u, need.ID)
				}
			}
		}
	}
}

func TestIntervalsAscendingNonOverlapping(t *testing.T) {
	_, res := batch(t, 1024, 64, 256, 3)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Packets) < 2 {
		t.Skip("workload produced a single packet")
	}
	for i := 1; i < len(plan.Packets); i++ {
		prev, cur := plan.Packets[i-1], plan.Packets[i]
		if prev.ToID >= cur.FrmID {
			t.Fatalf("packets %d,%d overlap: [%d,%d] then [%d,%d]",
				i-1, i, prev.FrmID, prev.ToID, cur.FrmID, cur.ToID)
		}
	}
}

func TestDuplicationAccounting(t *testing.T) {
	_, res := batch(t, 1024, 0, 256, 4)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if plan.DistinctEncryptions != len(res.Encryptions) {
		t.Fatalf("assigned %d distinct encryptions, rekey subtree has %d",
			plan.DistinctEncryptions, len(res.Encryptions))
	}
	if plan.TotalEntries < plan.DistinctEncryptions {
		t.Fatal("fewer entries than distinct encryptions")
	}
	// The paper's bound: duplication overhead < (log_d N - 1) / 46.
	if ov := plan.DuplicationOverhead(); ov > 5.0/46 {
		t.Fatalf("duplication overhead %.3f exceeds the paper's bound %.3f", ov, 5.0/46)
	}
}

func TestEmptyBatchEmptyPlan(t *testing.T) {
	tr := keytree.New(4, keys.NewDeterministicGenerator(5))
	if _, err := tr.ProcessBatch([]keytree.Member{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := tr.ProcessBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Packets) != 0 || plan.TotalEntries != 0 {
		t.Fatalf("empty batch yielded %d packets", len(plan.Packets))
	}
}

func TestBuildCapacityRejects(t *testing.T) {
	_, res := batch(t, 64, 0, 8, 6)
	if _, err := BuildCapacity(res, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := BuildCapacity(res, 1); err == nil {
		t.Error("capacity below path length accepted")
	}
}

func TestSmallCapacityStillCovers(t *testing.T) {
	tr, res := batch(t, 256, 0, 64, 7)
	// Height of a 256-user d=4 tree is 4, so any user needs at most 5
	// encryptions; capacity 8 forces many packets but must still work.
	plan, err := BuildCapacity(res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Packets) < len(res.Encryptions)/8 {
		t.Fatalf("suspiciously few packets: %d", len(plan.Packets))
	}
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		if _, ok := plan.UserPacket[id]; !ok {
			t.Fatalf("user %d unassigned", id)
		}
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	tr, res := batch(t, 256, 16, 64, 8)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	pkts, err := Materialize(plan, res, 12, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts)%k != 0 {
		t.Fatalf("%d packets, not a multiple of k=%d", len(pkts), k)
	}
	// Wire round trip for each and duplicate content equality.
	n := len(plan.Packets)
	for i, p := range pkts {
		b, err := p.Marshal()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		got, err := packet.ParseENC(b)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if int(got.BlockID) != i/k || int(got.Seq) != i%k {
			t.Fatalf("packet %d: block/seq %d/%d", i, got.BlockID, got.Seq)
		}
		if got.MaxKID != uint16(res.MaxKID) {
			t.Fatalf("packet %d: maxKID %d", i, got.MaxKID)
		}
	}
	// A user can recover its keys from its materialised packet alone.
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		pi := plan.UserPacket[id]
		p := pkts[pi]
		if int(p.FrmID) > id || id > int(p.ToID) {
			t.Fatalf("user %d outside its packet's range [%d,%d]", id, p.FrmID, p.ToID)
		}
	}
	_ = n
}

// TestMaterializeWithoutBuildIndex: a plan that does not carry Build's
// encryption indexes -- written by hand, or built over another batch so
// that its indexes name other encryptions -- materialises to the same
// packets through the by-ID search.
func TestMaterializeWithoutBuildIndex(t *testing.T) {
	_, res := batch(t, 256, 16, 64, 8)
	built, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(built, res, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	byHand := &Plan{UserPacket: built.UserPacket}
	shifted := &Plan{UserPacket: built.UserPacket}
	for _, pp := range built.Packets {
		byHand.Packets = append(byHand.Packets, PacketPlan{FrmID: pp.FrmID, ToID: pp.ToID, EncIDs: pp.EncIDs, Users: pp.Users})
		off := make([]int32, len(pp.encIdx))
		for j, i := range pp.encIdx {
			off[j] = (i + 1) % int32(len(res.Encryptions))
		}
		pp.encIdx = off
		shifted.Packets = append(shifted.Packets, pp)
	}
	for name, plan := range map[string]*Plan{"no index": byHand, "stale index": shifted} {
		got, err := Materialize(plan, res, 12, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: packets differ from those of Build's own plan", name)
		}
	}
}

func TestMaterializeUserDecryption(t *testing.T) {
	// End to end: a member that receives only its specific materialised
	// ENC packet derives the full new key path.
	d := 4
	tr := keytree.New(d, keys.NewDeterministicGenerator(9))
	joins := make([]keytree.Member, 64)
	for i := range joins {
		joins[i] = keytree.Member(i)
	}
	res0, err := tr.ProcessBatch(joins, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := map[keytree.Member]*keytree.UserView{}
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		ik, _ := tr.IndividualKey(m)
		views[m] = keytree.NewUserView(d, m, id, ik)
		if err := views[m].Apply(res0.MaxKID, res0.UserNeeds(id)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tr.ProcessBatch(nil, []keytree.Member{3, 17, 40})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := Materialize(plan, res, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		p := pkts[plan.UserPacket[id]]
		if err := views[m].Apply(int(p.MaxKID), p.Encs); err != nil {
			t.Fatalf("member %d: %v", m, err)
		}
		gk, ok := views[m].GroupKey()
		if !ok || gk != tr.GroupKey() {
			t.Fatalf("member %d: wrong group key from wire packet", m)
		}
	}
}

func BenchmarkUKAN4096L1024(b *testing.B) {
	_, res := batch(b, 4096, 0, 1024, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(res); err != nil {
			b.Fatal(err)
		}
	}
}
