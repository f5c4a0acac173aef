package rekey

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/packet"
)

func newServer(t testing.TB, seed uint64) *Server {
	t.Helper()
	s, err := NewServer(WithKeySeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bootstrap creates a server with n members and returns their Member
// clients, fully keyed via the first rekey message.
func bootstrap(t testing.TB, s *Server, n int) map[MemberID]*Member {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[MemberID]*Member, n)
	for i := 0; i < n; i++ {
		cred, ok := s.Credentials(MemberID(i))
		if !ok {
			t.Fatalf("no credentials for member %d", i)
		}
		m, err := NewMember(cred)
		if err != nil {
			t.Fatal(err)
		}
		deliverSpecific(t, rm, m, cred.NodeID)
		members[MemberID(i)] = m
	}
	return members
}

// deliverSpecific hands the member its exact ENC packet.
func deliverSpecific(t testing.TB, rm *RekeyMessage, m *Member, nodeID int) {
	t.Helper()
	p, ok := rm.PacketFor(nodeID)
	if !ok {
		t.Fatalf("no packet for node %d", nodeID)
	}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("node %d: specific packet did not complete recovery", nodeID)
	}
}

func TestServerValidation(t *testing.T) {
	badDeg := DefaultTuning()
	badDeg.Degree = 1
	if _, err := NewServer(WithTuning(badDeg)); err == nil {
		t.Error("degree 1 accepted")
	}
	badK := DefaultTuning()
	badK.K = 1000
	if _, err := NewServer(WithTuning(badK)); err == nil {
		t.Error("block size 1000 accepted")
	}
	badStrat := DefaultTuning()
	for _, name := range []string{"no-such-strategy", "batchplace", "leftmost"} {
		badStrat.Strategy = name
		if _, err := NewServer(WithTuning(badStrat)); err == nil {
			t.Errorf("strategy %q accepted", name)
		}
	}
	s := newServer(t, 1)
	if err := s.QueueJoin(5); err != nil {
		t.Fatal(err)
	}
	if err := s.QueueJoin(5); err == nil {
		t.Error("double join queued")
	}
	if err := s.QueueLeave(7); err == nil {
		t.Error("leave of unknown member queued")
	}
	if _, err := s.Rekey(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rekey(); !errors.Is(err, ErrNoChange) {
		t.Errorf("empty rekey error = %v, want ErrNoChange", err)
	}
	if err := s.QueueLeave(5); err != nil {
		t.Fatal(err)
	}
	if err := s.QueueLeave(5); err == nil {
		t.Error("double leave queued")
	}
}

func TestBootstrapAllMembersKeyed(t *testing.T) {
	s := newServer(t, 2)
	members := bootstrap(t, s, 100)
	want := s.GroupKey()
	for id, m := range members {
		gk, ok := m.GroupKey()
		if !ok || gk != want {
			t.Fatalf("member %d has wrong group key", id)
		}
	}
}

func TestLeaveRekeysEveryone(t *testing.T) {
	s := newServer(t, 3)
	members := bootstrap(t, s, 64)
	old := s.GroupKey()
	if err := s.QueueLeave(7); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if s.GroupKey() == old {
		t.Fatal("group key unchanged after leave")
	}
	delete(members, 7)
	for id, m := range members {
		deliverSpecific(t, rm, m, m.ID())
		gk, ok := m.GroupKey()
		if !ok || gk != s.GroupKey() {
			t.Fatalf("member %d: wrong key after leave rekey", id)
		}
	}
}

func TestMemberRecoversViaFEC(t *testing.T) {
	s := newServer(t, 4)
	members := bootstrap(t, s, 1024)
	for i := 0; i < 256; i++ {
		if err := s.QueueLeave(MemberID(i)); err != nil {
			t.Fatal(err)
		}
		delete(members, MemberID(i))
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Blocks() < 2 {
		t.Fatalf("workload too small: %d blocks", rm.Blocks())
	}

	// Pick a member whose packet lies outside the last block (the last
	// block's padding duplicates could deliver the specific packet as a
	// "different" shard); find its packet's block; withhold the specific
	// packet, deliver the rest of the block plus one parity packet.
	// Iterate by member ID so the choice is deterministic.
	var victim *Member
	var blk, seq int
	for id := MemberID(0); victim == nil && id < 1024; id++ {
		m, ok := members[id]
		if !ok {
			continue
		}
		nodeID := m.ID() // unchanged: no splits in a pure-leave batch
		pi := rm.Plan.UserPacket[nodeID]
		if b, s := rm.Part.Slot(pi); b < rm.Blocks()-1 {
			victim, blk, seq = m, b, s
		}
	}
	if victim == nil {
		t.Fatal("no member with a packet outside the last block")
	}

	k := rm.Part.K
	delivered := 0
	for s2 := 0; s2 < k; s2++ {
		if s2 == seq {
			continue // lose the specific packet
		}
		raw, err := rm.ENC[blk*k+s2].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		res, err := victim.Ingest(raw)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done {
			t.Fatal("done before k shards arrived")
		}
		delivered++
	}
	if victim.Done() {
		t.Fatal("victim done too early")
	}
	raw, err := rm.AppendWireParity(nil, blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := victim.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("k-th shard (parity) did not complete FEC recovery")
	}
	gk, ok := victim.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("FEC-recovered member has wrong group key")
	}
}

func TestMemberNACKAndUSR(t *testing.T) {
	s := newServer(t, 5)
	members := bootstrap(t, s, 1024)
	for i := 0; i < 256; i++ {
		if err := s.QueueLeave(MemberID(i)); err != nil {
			t.Fatal(err)
		}
		delete(members, MemberID(i))
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Blocks() < 2 {
		t.Fatalf("workload too small: %d blocks", rm.Blocks())
	}
	var victim *Member
	for _, m := range members {
		victim = m
		break
	}
	nodeID := victim.ID()
	pi := rm.Plan.UserPacket[nodeID]
	blk, _ := rm.Part.Slot(pi)
	k := rm.Part.K

	// Deliver a couple of other-block packets so the member notices the
	// message, then check its NACK names the right block.
	other := (blk + 1) % rm.Blocks()
	for s2 := 0; s2 < 3 && s2 < k; s2++ {
		raw, err := rm.ENC[other*k+s2].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Ingest(raw); err != nil {
			t.Fatal(err)
		}
	}
	nack, ok := victim.NACK()
	if !ok {
		t.Fatal("no NACK from a pending member")
	}
	if nack.MsgID != rm.MsgID {
		t.Fatalf("NACK msgID %d, want %d", nack.MsgID, rm.MsgID)
	}
	found := false
	for _, r := range nack.Requests {
		if int(r.BlockID) == blk {
			found = true
			if int(r.Count) != k {
				t.Fatalf("requested %d parity for untouched block, want %d", r.Count, k)
			}
		}
	}
	if !found {
		t.Fatalf("NACK omits the member's block %d: %+v", blk, nack.Requests)
	}

	// Server answers with a USR packet; the member completes.
	usr, err := rm.USRFor(int(nack.UserID))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := usr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	res, err := victim.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("USR did not complete recovery")
	}
	gk, ok := victim.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("USR-recovered member has wrong group key")
	}
	if _, ok := victim.NACK(); ok {
		t.Fatal("done member still NACKs")
	}
}

func TestChurnOverManyIntervals(t *testing.T) {
	s := newServer(t, 6)
	members := bootstrap(t, s, 128)
	rng := rand.New(rand.NewPCG(6, 6))
	nextID := MemberID(128)
	for interval := 0; interval < 10; interval++ {
		// Random churn.
		var gone []MemberID
		for id := range members {
			if rng.Float64() < 0.2 {
				gone = append(gone, id)
			}
			if len(gone) == len(members)-1 {
				break
			}
		}
		for _, id := range gone {
			if err := s.QueueLeave(id); err != nil {
				t.Fatal(err)
			}
			delete(members, id)
		}
		var fresh []MemberID
		for i := 0; i < rng.IntN(20); i++ {
			fresh = append(fresh, nextID)
			if err := s.QueueJoin(nextID); err != nil {
				t.Fatal(err)
			}
			nextID++
		}
		if len(gone) == 0 && len(fresh) == 0 {
			continue
		}
		rm, err := s.Rekey()
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		for _, id := range fresh {
			cred, ok := s.Credentials(id)
			if !ok {
				t.Fatalf("no credentials for %d", id)
			}
			m, err := NewMember(cred)
			if err != nil {
				t.Fatal(err)
			}
			members[id] = m
		}
		for id, m := range members {
			cred, _ := s.Credentials(id)
			deliverSpecific(t, rm, m, cred.NodeID)
			gk, ok := m.GroupKey()
			if !ok || gk != s.GroupKey() {
				t.Fatalf("interval %d member %d: wrong group key", interval, id)
			}
		}
	}
}

func TestParityStability(t *testing.T) {
	s := newServer(t, 7)
	bootstrap(t, s, 128)
	if err := s.QueueLeave(3); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := rm.AppendWireParity(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rm.AppendWireParity(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatal("parity packet not stable across calls")
	}
	if _, err := rm.AppendWireParity(nil, rm.Blocks(), 0); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestEvictedMemberCannotFollow(t *testing.T) {
	s := newServer(t, 8)
	members := bootstrap(t, s, 64)
	evicted := members[9]
	if err := s.QueueLeave(9); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	// Feed the evicted member every multicast packet; it must never
	// learn the new group key.
	old, _ := evicted.GroupKey()
	for _, p := range rm.ENC {
		raw, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// Ingest may error (its unwrap fails) or simply not complete.
		res, _ := evicted.Ingest(raw)
		if res.Done {
			gk, _ := evicted.GroupKey()
			if gk != old {
				t.Fatal("evicted member derived the new group key")
			}
		}
	}
	gk, _ := evicted.GroupKey()
	if gk != old {
		t.Fatal("evicted member's group key changed")
	}
	if gk == s.GroupKey() {
		t.Fatal("evicted member holds the current group key")
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	s := newServer(t, 9)
	members := bootstrap(t, s, 16)
	m := members[0]
	if _, err := m.Ingest(nil); err == nil {
		t.Error("nil packet accepted")
	}
	if _, err := m.Ingest(make([]byte, 50)); err == nil {
		t.Error("malformed packet accepted")
	}
	nackRaw, _ := (&packet.NACK{}).Marshal()
	if _, err := m.Ingest(nackRaw); err == nil {
		t.Error("NACK accepted by a member")
	}
}

// TestRekeyAtMaxMembersRefusesNextJoin: a group of degree d filled to
// MaxMembers(d) rekeys, and keeps rekeying through scattered leaves and
// rejoins, with every node ID and MaxKID inside the 16-bit wire fields
// and a USR buildable for every member. One more join fails at
// QueueJoin with ErrGroupFull and leaves the tree, the queues and the
// message sequence as they were; a queued leave makes room for it.
func TestRekeyAtMaxMembersRefusesNextJoin(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		tn := DefaultTuning()
		tn.Degree = d
		s, err := NewServer(WithKeySeed(uint64(d)), WithTuning(tn))
		if err != nil {
			t.Fatal(err)
		}
		limit := MaxMembers(d)
		queueRanges(t, s, [2]int{0, limit}, [2]int{})
		members := make([]MemberID, limit)
		for i := range members {
			members[i] = MemberID(i)
		}
		next := MemberID(limit)
		rng := rand.New(rand.NewPCG(uint64(d), 27))
		for round := 0; round <= 20; round++ {
			if round > 0 {
				// Scattered leaves, rejoined by as many new members.
				for _, j := range rng.Perm(limit)[:limit/64] {
					if err := s.QueueLeave(members[j]); err != nil {
						t.Fatal(err)
					}
					members[j] = next
					if err := s.QueueJoin(next); err != nil {
						t.Fatalf("d=%d round %d: rejoin: %v", d, round, err)
					}
					next++
				}
			}
			rm, err := s.Rekey()
			if err != nil {
				t.Fatalf("d=%d round %d: %v", d, round, err)
			}
			if rm.Result.MaxKID > 0xffff {
				t.Fatalf("d=%d round %d: MaxKID %d", d, round, rm.Result.MaxKID)
			}
			for _, m := range members {
				cred, ok := s.Credentials(m)
				if !ok || cred.NodeID > 0xffff {
					t.Fatalf("d=%d round %d: member %d credentials %+v, %v", d, round, m, cred, ok)
				}
				if _, err := rm.WireUSR(cred.NodeID); err != nil {
					t.Fatalf("d=%d round %d: member %d: %v", d, round, m, err)
				}
			}
		}
		if s.N() != limit {
			t.Fatalf("d=%d: %d members, want %d", d, s.N(), limit)
		}

		snap, seq := s.Snapshot(), s.msgSeq
		if err := s.QueueJoin(next); !errors.Is(err, ErrGroupFull) {
			t.Fatalf("d=%d: join past %d members: %v, want ErrGroupFull", d, limit, err)
		}
		if j, l := s.Pending(); j != 0 || l != 0 || !bytes.Equal(s.Snapshot(), snap) || s.msgSeq != seq {
			t.Fatalf("d=%d: refused join changed the server: %d/%d queued, msgSeq %d -> %d", d, j, l, seq, s.msgSeq)
		}
		if err := s.QueueLeave(members[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.QueueJoin(next); err != nil {
			t.Fatalf("d=%d: join beside a queued leave: %v", d, err)
		}
	}
}
