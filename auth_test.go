package rekey

import (
	"errors"
	"testing"

	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/packet"
)

func newSignedServer(t testing.TB, seed uint64, opts ...Option) (*Server, *keys.Signer) {
	t.Helper()
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(append([]Option{WithKeySeed(seed), WithSigner(signer)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s, signer
}

// verifyingMember builds a member that requires interval auth.
func verifyingMember(t testing.TB, s *Server, id MemberID) *Member {
	t.Helper()
	cred, ok := s.Credentials(id)
	if !ok {
		t.Fatalf("no credentials for member %d", id)
	}
	m, err := NewMember(cred)
	if err != nil {
		t.Fatal(err)
	}
	return m.SetVerifier(keys.NewRootVerifier(s.SignerPublic()))
}

// wireENCFor returns the authenticated datagram carrying nodeID's
// specific packet, plus its block.
func wireENCFor(t testing.TB, rm *RekeyMessage, nodeID int) (wire []byte, block, seq int) {
	t.Helper()
	pi, ok := rm.PacketFor(nodeID)
	if !ok {
		t.Fatalf("no packet for node %d", nodeID)
	}
	w, err := rm.WireENC(pi)
	if err != nil {
		t.Fatal(err)
	}
	return w, pi / rm.k, pi % rm.k
}

// bootstrapSigned stands up n verifying members keyed via their
// authenticated ENC datagrams.
func bootstrapSigned(t testing.TB, s *Server, n int) (map[MemberID]*Member, *RekeyMessage) {
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
	if !rm.Authenticated() {
		t.Fatal("signed server produced an unauthenticated message")
	}
	members := make(map[MemberID]*Member, n)
	for i := 0; i < n; i++ {
		cred, _ := s.Credentials(MemberID(i))
		m := verifyingMember(t, s, MemberID(i))
		wire, _, _ := wireENCFor(t, rm, cred.NodeID)
		res, err := m.Ingest(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("member %d: authenticated ENC did not complete recovery", i)
		}
		members[MemberID(i)] = m
	}
	return members, rm
}

func TestAuthEndToEndDirect(t *testing.T) {
	s, _ := newSignedServer(t, 11)
	members, _ := bootstrapSigned(t, s, 60)
	want := s.GroupKey()
	for id, m := range members {
		gk, ok := m.GroupKey()
		if !ok || gk != want {
			t.Fatalf("member %d: wrong group key after authenticated bootstrap", id)
		}
	}
}

func TestAuthParityRecovery(t *testing.T) {
	s, _ := newSignedServer(t, 12)
	members, _ := bootstrapSigned(t, s, 80)
	// Second interval: some churn, then recover one member purely from
	// another slot's ENC (for block estimation) plus parity packets.
	for i := 80; i < 90; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.QueueLeave(MemberID(3)); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	m := members[MemberID(7)]
	cred, _ := s.Credentials(MemberID(7))
	_, block, _ := wireENCFor(t, rm, cred.NodeID)
	// k parity packets alone force an FEC decode of the block: every
	// shard's block root comes from the PARITY trailers' aux roots.
	var last IngestResult
	for idx := 0; idx < rm.k; idx++ {
		wire, err := rm.AppendWireParity(nil, block, idx)
		if err != nil {
			t.Fatal(err)
		}
		last, err = m.Ingest(wire)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !last.Done || !last.Recovered {
		t.Fatalf("parity recovery incomplete: %+v", last)
	}
	gk, ok := m.GroupKey()
	if !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key after authenticated FEC recovery")
	}
}

func TestAuthUSRPath(t *testing.T) {
	s, _ := newSignedServer(t, 13)
	members, _ := bootstrapSigned(t, s, 30)
	if err := s.QueueLeave(MemberID(5)); err != nil {
		t.Fatal(err)
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	m := members[MemberID(9)]
	cred, _ := s.Credentials(MemberID(9))
	wire, err := rm.WireUSR(cred.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Ingest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("authenticated USR did not complete recovery")
	}
	if gk, ok := m.GroupKey(); !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key after authenticated USR")
	}
	// Unknown node IDs have no leaf in the signed USR subtree.
	if _, err := rm.WireUSR(0xfffe); !errors.Is(err, ErrNoAuthLeaf) {
		t.Fatalf("WireUSR(unknown) error = %v, want ErrNoAuthLeaf", err)
	}
}

func TestAuthRejectsForgery(t *testing.T) {
	s, _ := newSignedServer(t, 14)
	members, rm := bootstrapSigned(t, s, 20)
	for i := 20; i < 24; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	m := members[MemberID(2)]
	cred, _ := s.Credentials(MemberID(2))
	wire, _, _ := wireENCFor(t, rm, cred.NodeID)

	// Flipping any packet byte breaks the leaf hash.
	bad := append([]byte(nil), wire...)
	bad[packet.ENCHeaderLen+1] ^= 0x40
	if _, err := m.Ingest(bad); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("tampered ENC error = %v, want ErrBadPacket", err)
	}
	// A packet with its trailer cut off is rejected outright.
	if _, err := m.Ingest(wire[:packet.PacketLen]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("trailerless ENC error = %v, want ErrBadPacket", err)
	}
	// A signature from the wrong key fails the (uncached) root check.
	otherSigner, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	inner, tr, err := packet.SplitAuth(wire)
	if err != nil {
		t.Fatal(err)
	}
	forgedSig, err := otherSigner.Sign([]byte("wrong root"))
	if err != nil {
		t.Fatal(err)
	}
	tr.Sig = forgedSig
	forged, err := tr.AppendAuthTrailer(append([]byte(nil), inner...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(forged); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("forged signature error = %v, want ErrBadPacket", err)
	}
	// The genuine datagram still works after all that.
	res, err := m.Ingest(wire)
	if err != nil || !res.Done {
		t.Fatalf("genuine ENC after forgeries: res=%+v err=%v", res, err)
	}
}

func TestAuthTamperedParityDropsBlockThenRecovers(t *testing.T) {
	s, _ := newSignedServer(t, 15)
	members, _ := bootstrapSigned(t, s, 80)
	for i := 80; i < 88; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	m := members[MemberID(11)]
	cred, _ := s.Credentials(MemberID(11))
	_, block, _ := wireENCFor(t, rm, cred.NodeID)
	// k parity packets, one with a corrupted payload byte: the trailer
	// still verifies (parity bytes are not tree leaves), but the
	// decoded block must fail the block-root recheck and be dropped
	// rather than applied.
	for idx := 0; idx < rm.k; idx++ {
		wire, err := rm.AppendWireParity(nil, block, idx)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			wire[packet.FECOffset+200] ^= 0x5a
		}
		res, err := m.Ingest(wire)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done {
			t.Fatal("corrupted block was applied")
		}
	}
	if m.Done() {
		t.Fatal("member done despite corrupted parity")
	}
	// A sender that replays the block's valid PARITY trailer over
	// payloads of its own can do that as often as it likes: the block
	// never holds more than k shards, and every forged fill is dropped.
	for idx := rm.k; idx < 3*rm.k+3; idx++ {
		wire, err := rm.AppendWireParity(nil, block, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := packet.FECOffset; i < packet.PacketLen; i += 97 {
			wire[i] ^= 0xa5
		}
		res, err := m.Ingest(wire)
		if err != nil || res.Done {
			t.Fatalf("forged parity %d: res=%+v err=%v", idx, res, err)
		}
		if held := m.heldShards(block); held >= rm.k {
			t.Fatalf("after forged parity %d the block holds %d shards, want fewer than k=%d", idx, held, rm.k)
		}
	}
	// Honest retransmissions rebuild the dropped block: what the forger
	// left in it spoils one more fill, then any k honest shards decode.
	var last IngestResult
	fed := 0
	for idx := 0; !last.Done && idx < 2*rm.k; idx++ {
		wire, err := rm.AppendWireParity(nil, block, idx)
		if err != nil {
			t.Fatal(err)
		}
		last, err = m.Ingest(wire)
		if err != nil {
			t.Fatal(err)
		}
		fed++
	}
	if !last.Done || !last.Recovered || fed > 2*rm.k-1 {
		t.Fatalf("recovery after %d honest retransmissions incomplete: %+v", fed, last)
	}
	if gk, ok := m.GroupKey(); !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key after poisoned-block recovery")
	}
}

func TestAuthOneSignaturePerInterval(t *testing.T) {
	reg := obs.New()
	s, _ := newSignedServer(t, 16, WithObs(reg))
	_, rm := bootstrapSigned(t, s, 120)
	snap := reg.Snapshot()
	h, ok := snap.Histograms["sign_root_s"]
	if !ok || h.Count != 1 {
		t.Fatalf("sign_root_s count = %+v, want exactly 1 signing per interval", h)
	}
	// Every ENC datagram and every block's parity trailer was measured.
	pb := snap.Histograms["merkle_proof_bytes"]
	if want := int64(len(rm.ENC) + rm.Blocks()); pb.Count != want {
		t.Fatalf("merkle_proof_bytes count = %d, want %d", pb.Count, want)
	}
}

func TestAuthTrailerIgnoredWithoutVerifier(t *testing.T) {
	s, _ := newSignedServer(t, 17)
	for i := 0; i < 25; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	// A member without a verifier strips the trailer and proceeds.
	cred, _ := s.Credentials(MemberID(4))
	m, err := NewMember(cred)
	if err != nil {
		t.Fatal(err)
	}
	wire, _, _ := wireENCFor(t, rm, cred.NodeID)
	res, err := m.Ingest(wire)
	if err != nil || !res.Done {
		t.Fatalf("verifier-less member on trailered ENC: res=%+v err=%v", res, err)
	}
	if gk, ok := m.GroupKey(); !ok || gk != s.GroupKey() {
		t.Fatal("wrong group key")
	}
}

func TestVerifierRejectsUnsignedTraffic(t *testing.T) {
	s := newServer(t, 18)
	for i := 0; i < 10; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Authenticated() {
		t.Fatal("unsigned server claims authentication")
	}
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := s.Credentials(MemberID(1))
	m, err := NewMember(cred)
	if err != nil {
		t.Fatal(err)
	}
	m.SetVerifier(keys.NewRootVerifier(signer.Public()))
	pi, ok := rm.PacketFor(cred.NodeID)
	if !ok {
		t.Fatal("no packet")
	}
	if _, err := m.Ingest(rm.ENC[pi][:packet.PacketLen]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("unsigned ENC error = %v, want ErrBadPacket", err)
	}
}

// TestSignedRekeyEveryoneLeaves: a batch that leaves no user yields a
// message with no datagrams and no auth state -- there is no USR leaf
// and no ENC datagram to build a Merkle tree over -- and the next
// interval's joiner verifies its signed datagram and is keyed by it.
func TestSignedRekeyEveryoneLeaves(t *testing.T) {
	s, _ := newSignedServer(t, 17)
	bootstrapSigned(t, s, 4)
	for i := 0; i < 4; i++ {
		if err := s.QueueLeave(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := s.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Authenticated() || len(rm.ENC) != 0 || rm.Blocks() != 0 {
		t.Fatalf("empty interval: authenticated %v, %d ENC datagrams, %d blocks; want none",
			rm.Authenticated(), len(rm.ENC), rm.Blocks())
	}
	if err := s.QueueJoin(MemberID(9)); err != nil {
		t.Fatal(err)
	}
	if rm, err = s.Rekey(); err != nil {
		t.Fatal(err)
	}
	if !rm.Authenticated() {
		t.Fatal("the join interval is not authenticated")
	}
	cred, _ := s.Credentials(MemberID(9))
	wire, _, _ := wireENCFor(t, rm, cred.NodeID)
	m := verifyingMember(t, s, MemberID(9))
	res, err := m.Ingest(wire)
	if err != nil || !res.Done {
		t.Fatalf("the joiner's signed ENC: %+v, %v", res, err)
	}
	if gk, ok := m.GroupKey(); !ok || gk != s.GroupKey() {
		t.Fatal("the joiner does not hold the group key")
	}
}
