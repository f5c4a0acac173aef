package rekey

import (
	"errors"
	"testing"

	"repro/internal/packet"
)

// freshMember builds a server with n members and returns one member
// that has NOT yet ingested anything of the first rekey message.
func freshMember(t *testing.T, seed uint64, n int) (*Server, *RekeyMessage, *Member, Credentials) {
	t.Helper()
	s := newServer(t, seed)
	for i := 0; i < n; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	cred, ok := s.Credentials(0)
	if !ok {
		t.Fatal("no credentials for member 0")
	}
	m, err := NewMember(cred)
	if err != nil {
		t.Fatal(err)
	}
	return s, rm, m, cred
}

// TestIngestErrBadPacket: garbage and non-member packet types are
// ErrBadPacket, and the sentinel survives errors.Is through wrapping.
func TestIngestErrBadPacket(t *testing.T) {
	_, _, m, _ := freshMember(t, 51, 8)
	for name, raw := range map[string][]byte{
		"nil":       nil,
		"truncated": make([]byte, 5),
		"random":    {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
	} {
		_, err := m.Ingest(raw)
		if !errors.Is(err, ErrBadPacket) {
			t.Errorf("%s: err = %v, want ErrBadPacket", name, err)
		}
	}
	nackRaw, err := (&packet.NACK{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(nackRaw); !errors.Is(err, ErrBadPacket) {
		t.Errorf("NACK: err = %v, want ErrBadPacket", err)
	}
}

// TestIngestErrWrongMessage: a USR addressed to a different node does
// not apply and reports ErrWrongMessage, leaving the member unkeyed.
func TestIngestErrWrongMessage(t *testing.T) {
	s, rm, m, cred := freshMember(t, 52, 8)
	other, ok := s.Credentials(1)
	if !ok || other.NodeID == cred.NodeID {
		t.Fatal("need a distinct second member")
	}
	usr, err := rm.USRFor(other.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := usr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Ingest(raw)
	if !errors.Is(err, ErrWrongMessage) {
		t.Fatalf("err = %v, want ErrWrongMessage", err)
	}
	if errors.Is(err, ErrBadPacket) || errors.Is(err, ErrStale) {
		t.Fatalf("err = %v matches more than one sentinel", err)
	}
	if res.Kind != packet.TypeUSR {
		t.Fatalf("res.Kind = %v, want USR", res.Kind)
	}
	if res.Done {
		t.Fatal("wrong-message ingest reported Done")
	}
	if _, ok := m.GroupKey(); ok {
		t.Fatal("member keyed by someone else's USR")
	}
}

// TestIngestErrStale: packets of a completed message are ErrStale and
// carry the packet's identity in the result.
func TestIngestErrStale(t *testing.T) {
	_, rm, m, cred := freshMember(t, 53, 8)
	usr, err := rm.USRFor(cred.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := usr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("USR did not complete the member")
	}
	// Any further packet of the same message is stale now.
	res, err = m.Ingest(raw)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	if res.Kind != packet.TypeUSR || res.MsgID != usr.MsgID {
		t.Fatalf("stale result = %+v", res)
	}
	if res.Done {
		t.Fatal("stale ingest reported Done")
	}
	if len(rm.ENC) > 0 {
		if _, err := m.Ingest(rm.ENC[0][:packet.PacketLen]); !errors.Is(err, ErrStale) {
			t.Fatalf("stale ENC err = %v, want ErrStale", err)
		}
	}
}

// TestIngestResultFields checks the typed result on the ENC shard path:
// kind, block/seq coordinates, the Duplicate flag, and Recovered on a
// FEC-completed block.
func TestIngestResultFields(t *testing.T) {
	s := newServer(t, 54)
	members := bootstrap(t, s, 512)
	for i := 0; i < 128; i++ {
		if err := s.QueueLeave(MemberID(i)); err != nil {
			t.Fatal(err)
		}
		delete(members, MemberID(i))
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	var m *Member
	for _, mm := range members {
		m = mm
		break
	}
	if rm.Blocks() < 2 {
		t.Fatalf("need >= 2 blocks, got %d", rm.Blocks())
	}
	nodeID := m.ID()
	pi := rm.Plan.UserPacket[nodeID]
	blk, _ := rm.Part.Slot(pi)
	k := rm.Part.K

	// A shard from another block: counted, not duplicate, not done.
	otherBlk := (blk + 1) % rm.Blocks()
	raw := rm.ENC[otherBlk*k][:packet.PacketLen]
	p, err := packet.ParseENC(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != packet.TypeENC || res.MsgID != p.MsgID {
		t.Fatalf("res = %+v", res)
	}
	if res.Block != int(p.BlockID) || res.Seq != int(p.Seq) {
		t.Fatalf("res coordinates = (%d,%d), want (%d,%d)", res.Block, res.Seq, p.BlockID, p.Seq)
	}
	if res.Duplicate || res.Done {
		t.Fatalf("first shard: res = %+v", res)
	}

	// The same shard again is a duplicate.
	res, err = m.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate {
		t.Fatal("repeated shard not flagged Duplicate")
	}

	// Recover the member's own block purely from parity: the completing
	// ingest must report Done and Recovered.
	var last IngestResult
	for i := 0; i < k; i++ {
		praw, err := rm.AppendWireParity(nil, blk, i)
		if err != nil {
			t.Fatal(err)
		}
		last, err = m.Ingest(praw)
		if err != nil {
			t.Fatal(err)
		}
		if last.Kind != packet.TypePARITY {
			t.Fatalf("parity res.Kind = %v", last.Kind)
		}
	}
	if !last.Done || !last.Recovered {
		t.Fatalf("final parity res = %+v, want Done && Recovered", last)
	}
	gk, ok := m.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key after FEC recovery")
	}
}
