package rekey

import (
	"errors"
	"testing"

	"repro/internal/packet"
)

// TestMemberDuplicateIngestIdempotent feeds the same packet repeatedly.
func TestMemberDuplicateIngestIdempotent(t *testing.T) {
	s := newServer(t, 30)
	members := bootstrap(t, s, 32)
	m := members[3]
	if err := s.QueueLeave(5); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := s.Credentials(3)
	pi, _ := rm.PacketFor(cred.NodeID)
	raw := rm.ENC[pi][:packet.PacketLen]
	for i := 0; i < 3; i++ {
		// Re-ingesting after completion is reported as ErrStale, never
		// as a hard failure or a changed key.
		if _, err := m.Ingest(raw); err != nil && !errors.Is(err, ErrStale) {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	gk, ok := m.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key after duplicate ingest")
	}
}

// TestMemberNACKBeforeAnyPacket: a member that has seen nothing of a
// message has nothing to NACK about.
func TestMemberNACKBeforeAnyPacket(t *testing.T) {
	s := newServer(t, 31)
	members := bootstrap(t, s, 16)
	if _, ok := members[1].NACK(); ok {
		t.Fatal("idle member produced a NACK")
	}
}

// TestMemberParityOnlyRecovery: a member that receives zero ENC packets
// of its block but k parity packets still recovers (pure FEC path).
func TestMemberParityOnlyRecovery(t *testing.T) {
	s := newServer(t, 32)
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
	var victim *Member
	for _, m := range members {
		victim = m
		break
	}
	nodeID := victim.ID()
	pi := rm.Plan.UserPacket[nodeID]
	blk, _ := rm.Part.Slot(pi)
	k := rm.Part.K

	// First, one ENC packet from ANOTHER block so the estimator learns
	// the message exists and bounds the range; then k parity packets of
	// the victim's block.
	other := (blk + 1) % rm.Blocks()
	raw := rm.ENC[other*k][:packet.PacketLen]
	if _, err := victim.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	var res IngestResult
	for i := 0; i < k; i++ {
		praw, err := rm.AppendWireParity(nil, blk, i)
		if err != nil {
			t.Fatal(err)
		}
		res, err = victim.Ingest(praw)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !res.Done {
		t.Fatal("k parity packets did not recover the block")
	}
	gk, ok := victim.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key after parity-only recovery")
	}
}

// TestMemberStaleMessagePacketsIgnoredAfterDone: once done with message
// m, further packets of m change nothing.
func TestMemberStaleMessagePacketsIgnoredAfterDone(t *testing.T) {
	s := newServer(t, 33)
	members := bootstrap(t, s, 64)
	m := members[9]
	if err := s.QueueLeave(2); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := s.Credentials(9)
	deliverSpecific(t, rm, m, cred.NodeID)
	gk1, _ := m.GroupKey()
	// A parity packet of the same message must be a no-op now.
	if rm.Blocks() > 0 {
		raw, err := rm.AppendWireParity(nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Ingest(raw)
		if !errors.Is(err, ErrStale) {
			t.Fatalf("stale parity: err = %v, want ErrStale", err)
		}
		if res.Done {
			t.Fatal("done member reported completion again")
		}
	}
	gk2, _ := m.GroupKey()
	if gk1 != gk2 {
		t.Fatal("group key changed after post-completion packet")
	}
}

// TestMemberUSRIDMismatch: a USR packet whose NewID disagrees with the
// member's derivation is rejected.
func TestMemberUSRIDMismatch(t *testing.T) {
	s := newServer(t, 34)
	members := bootstrap(t, s, 64)
	m := members[4]
	if err := s.QueueLeave(8); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := s.Credentials(4)
	usr, err := rm.USRFor(cred.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	usr.NewID++ // someone else's ID
	raw, _ := usr.Marshal()
	if _, err := m.Ingest(raw); err == nil {
		t.Fatal("mismatched USR accepted")
	}
}

// TestNewMemberValidation rejects nonsense credentials.
func TestNewMemberValidation(t *testing.T) {
	if _, err := NewMember(Credentials{Degree: 1, BlockSize: 10}); err == nil {
		t.Error("degree 1 accepted")
	}
	if _, err := NewMember(Credentials{Degree: 4, BlockSize: 0}); err == nil {
		t.Error("block size 0 accepted")
	}
	if _, err := NewMember(Credentials{Degree: 4, BlockSize: 300}); err == nil {
		t.Error("block size 300 accepted")
	}
}

// TestMemberKeysAccessorCopies ensures the Keys snapshot is detached.
func TestMemberKeysAccessorCopies(t *testing.T) {
	s := newServer(t, 35)
	members := bootstrap(t, s, 16)
	m := members[2]
	snap := m.Keys()
	for id := range snap {
		delete(snap, id)
	}
	if len(m.Keys()) == 0 {
		t.Fatal("mutating the snapshot mutated the member")
	}
}

// TestUSRAloneBootstrapsJoiner: a joining member keyed purely by USR.
func TestUSRAloneBootstrapsJoiner(t *testing.T) {
	s := newServer(t, 36)
	bootstrap(t, s, 64)
	if err := s.QueueJoin(500); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := s.Credentials(500)
	m, err := NewMember(cred)
	if err != nil {
		t.Fatal(err)
	}
	usr, err := rm.USRFor(cred.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := usr.Marshal()
	res, err := m.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("USR did not complete the joiner")
	}
	gk, ok := m.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("joiner has wrong group key")
	}
}

// TestUSRForUnknownNode errors out of range rather than panicking.
func TestUSRForOutOfRange(t *testing.T) {
	s := newServer(t, 37)
	bootstrap(t, s, 16)
	if err := s.QueueLeave(1); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rm.USRFor(1 << 20); err == nil {
		t.Fatal("node ID beyond wire field accepted")
	}
	// Unknown-but-representable node: empty USR (no encryptions on that
	// path) is fine; members validate the ID themselves.
	usr, err := rm.USRFor(0xffff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := usr.Marshal(); err != nil {
		t.Fatal(err)
	}
	_ = packet.PacketLen
}
