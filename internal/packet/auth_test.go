package packet

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/keys"
)

func testTrailer(kind Type, hasAux bool, nSub, nTop int) *AuthTrailer {
	rng := rand.New(rand.NewPCG(uint64(kind), uint64(nSub*100+nTop)))
	hashes := func(n int) []keys.MerkleHash {
		p := make([]keys.MerkleHash, n)
		for i := range p {
			for j := range p[i] {
				p[i][j] = byte(rng.Uint32())
			}
		}
		return p
	}
	t := &AuthTrailer{
		Kind:      kind,
		NTop:      5,
		LeafIndex: 3,
		NSub:      46,
		SubProof:  hashes(nSub),
		TopProof:  hashes(nTop),
		HasAux:    hasAux,
		Sig:       bytes.Repeat([]byte{0x5a}, 128),
	}
	if hasAux {
		t.Aux = hashes(1)[0]
	}
	return t
}

func trailerEqual(a, b *AuthTrailer) bool {
	if a.Kind != b.Kind || a.NTop != b.NTop || a.LeafIndex != b.LeafIndex ||
		a.NSub != b.NSub || a.HasAux != b.HasAux || a.Aux != b.Aux ||
		!bytes.Equal(a.Sig, b.Sig) ||
		len(a.SubProof) != len(b.SubProof) || len(a.TopProof) != len(b.TopProof) {
		return false
	}
	for i := range a.SubProof {
		if a.SubProof[i] != b.SubProof[i] {
			return false
		}
	}
	for i := range a.TopProof {
		if a.TopProof[i] != b.TopProof[i] {
			return false
		}
	}
	return true
}

func TestAuthTrailerRoundTrip(t *testing.T) {
	inner, err := (&PARITY{MsgID: 7, BlockID: 2, Seq: 11, Payload: make([]byte, ParityPayloadLen)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var reused AuthTrailer
	for _, tc := range []struct {
		kind       Type
		hasAux     bool
		nSub, nTop int
	}{
		{TypePARITY, true, 0, 4},
		{TypePARITY, false, 6, 1},
		{TypePARITY, true, 0, 0},
		{TypePARITY, false, MaxAuthProofLen, MaxAuthProofLen},
	} {
		tr := testTrailer(tc.kind, tc.hasAux, tc.nSub, tc.nTop)
		wire, err := tr.AppendAuthTrailer(append([]byte(nil), inner...))
		if err != nil {
			t.Fatal(err)
		}
		if len(wire)-len(inner) > MaxAuthTrailer {
			t.Fatalf("trailer %d bytes exceeds MaxAuthTrailer %d", len(wire)-len(inner), MaxAuthTrailer)
		}
		gotInner, got, err := SplitAuth(wire)
		if err != nil {
			t.Fatalf("SplitAuth: %v", err)
		}
		if !bytes.Equal(gotInner, inner) {
			t.Fatal("inner packet bytes changed through the trailer round trip")
		}
		if !trailerEqual(tr, got) {
			t.Fatalf("trailer round trip mismatch: %+v vs %+v", tr, got)
		}
		// One trailer split into again and again -- whatever the last
		// datagram left in it -- reads what a fresh one reads.
		if _, err := reused.Split(wire); err != nil || !trailerEqual(tr, &reused) {
			t.Fatalf("reused trailer: err %v, %+v vs %+v", err, tr, &reused)
		}
	}
}

// TestSplitPlainPacketDoesNotAllocate: a datagram that carries no
// trailer is what a non-verifying member splits for every packet of an
// unsigned stream; saying so must cost nothing.
func TestSplitPlainPacketDoesNotAllocate(t *testing.T) {
	plain, err := (&ENC{MsgID: 5, BlockID: 1, Seq: 2, MaxKID: 84, FrmID: 90, ToID: 95}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bare := append(append([]byte(nil), plain...), 0xff, 0xff) // a length no datagram has
	var tr AuthTrailer
	for name, b := range map[string][]byte{"padded": plain, "length out of range": bare, "short": plain[:5]} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := tr.Split(b); err == nil {
				t.Fatal("plain packet split into a trailer")
			}
		}); allocs != 0 {
			t.Errorf("%s: Split allocates %.0f times on a trailerless packet", name, allocs)
		}
	}
}

func TestAuthTrailerKindMismatchRejected(t *testing.T) {
	inner, _ := (&PARITY{MsgID: 1, BlockID: 0, Seq: 10, Payload: make([]byte, ParityPayloadLen)}).Marshal()
	tr := testTrailer(TypeENC, false, 2, 2) // claims ENC over a PARITY packet
	wire, err := tr.AppendAuthTrailer(append([]byte(nil), inner...))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SplitAuth(wire); err == nil {
		t.Fatal("trailer kind/packet type mismatch accepted")
	}
}

func TestAuthTrailerBoundsRejected(t *testing.T) {
	base := testTrailer(TypeUSR, false, 2, 2)
	for name, mutate := range map[string]func(*AuthTrailer){
		"empty sig":     func(tr *AuthTrailer) { tr.Sig = nil },
		"oversized sig": func(tr *AuthTrailer) { tr.Sig = make([]byte, MaxAuthSigLen+1) },
		"long subproof": func(tr *AuthTrailer) { tr.SubProof = make([]keys.MerkleHash, MaxAuthProofLen+1) },
		"long topproof": func(tr *AuthTrailer) { tr.TopProof = make([]keys.MerkleHash, MaxAuthProofLen+1) },
		"zero ntop":     func(tr *AuthTrailer) { tr.NTop = 0 },
		"huge ntop":     func(tr *AuthTrailer) { tr.NTop = 1 << 16 },
	} {
		tr := *base
		mutate(&tr)
		if _, err := tr.AppendAuthTrailer(nil); err == nil {
			t.Fatalf("%s: AppendAuthTrailer accepted", name)
		}
	}
}

func TestSplitAuthStructuralRejection(t *testing.T) {
	inner, _ := (&USR{MsgID: 3, NewID: 9, MaxKID: 4}).Marshal()
	tr := testTrailer(TypeUSR, false, 3, 2)
	wire, err := tr.AppendAuthTrailer(append([]byte(nil), inner...))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere must not parse into a valid (inner, trailer)
	// pair that still matches the original trailer.
	for cut := 1; cut < len(wire)-len(inner); cut++ {
		_, got, err := SplitAuth(wire[:len(wire)-cut])
		if err == nil && trailerEqual(got, tr) {
			t.Fatalf("truncation of %d bytes reproduced the trailer", cut)
		}
	}
	// A version bump is rejected.
	bad := append([]byte(nil), wire...)
	bad[len(inner)] ^= 0xff
	if _, _, err := SplitAuth(bad); err == nil {
		t.Fatal("corrupt version byte accepted")
	}
	// Too-short input is rejected outright.
	if _, _, err := SplitAuth(wire[:3]); err == nil {
		t.Fatal("short input accepted")
	}
}

// FuzzSplitAuth drives the trailer parser with mutated datagrams: it
// must never panic, and any accepted parse must re-serialize to the
// bytes it was cut from.
func FuzzSplitAuth(f *testing.F) {
	inner, _ := (&PARITY{MsgID: 2, BlockID: 1, Seq: 12, Payload: make([]byte, ParityPayloadLen)}).Marshal()
	seedTr := testTrailer(TypePARITY, true, 0, 3)
	seed, _ := seedTr.AppendAuthTrailer(append([]byte(nil), inner...))
	f.Add(seed, uint16(0), byte(0))
	f.Add(seed, uint16(1050), byte(0x40))
	f.Add([]byte{1, 1, 0, 1}, uint16(2), byte(7))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		if len(data) > 0 && flip != 0 {
			data[int(pos)%len(data)] ^= flip
		}
		gotInner, tr, err := SplitAuth(data)
		if err != nil {
			return
		}
		back, err := tr.AppendAuthTrailer(append([]byte(nil), gotInner...))
		if err != nil {
			t.Fatalf("accepted trailer failed to re-serialize: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("accepted parse does not round-trip to input bytes")
		}
	})
}
