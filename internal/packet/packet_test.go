package packet

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/keytree"
)

func randEncs(rng *rand.Rand, n int) []keytree.Encryption {
	encs := make([]keytree.Encryption, n)
	for i := range encs {
		encs[i].ID = rng.Uint32()%100000 + 1
		for j := range encs[i].Wrapped {
			encs[i].Wrapped[j] = byte(rng.Uint32())
		}
	}
	return encs
}

func TestENCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{0, 1, 17, MaxEncPerPacket} {
		p := &ENC{
			MsgID:   13,
			BlockID: 7,
			Seq:     3,
			MaxKID:  5460,
			FrmID:   1365,
			ToID:    1402,
			Encs:    randEncs(rng, n),
		}
		b, err := p.Marshal()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(b) != PacketLen {
			t.Fatalf("n=%d: marshalled length %d", n, len(b))
		}
		got, err := ParseENC(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.MsgID != p.MsgID || got.BlockID != p.BlockID || got.Seq != p.Seq ||
			got.MaxKID != p.MaxKID || got.FrmID != p.FrmID || got.ToID != p.ToID {
			t.Fatalf("n=%d: header mismatch: %+v vs %+v", n, got, p)
		}
		if len(got.Encs) != n {
			t.Fatalf("n=%d: parsed %d encryptions", n, len(got.Encs))
		}
		for i := range got.Encs {
			if got.Encs[i] != p.Encs[i] {
				t.Fatalf("n=%d: encryption %d differs", n, i)
			}
		}
		// The header-only parse reads the same ten bytes, and the
		// encryptions come out sized to the packet's count.
		h, err := ParseENCHeader(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := ENCHeader{MsgID: p.MsgID, BlockID: p.BlockID, Seq: p.Seq, Dup: p.Dup, MaxKID: p.MaxKID, FrmID: p.FrmID, ToID: p.ToID}
		if h != want {
			t.Fatalf("n=%d: ParseENCHeader = %+v, want %+v", n, h, want)
		}
		if encs := AppendENCEncryptions(nil, b); len(encs) != n || cap(encs) != n {
			t.Fatalf("n=%d: AppendENCEncryptions(nil) len %d cap %d", n, len(encs), cap(encs))
		}
		// Appended after a kept prefix, into a reused buffer.
		buf := make([]keytree.Encryption, 1, 1+MaxEncPerPacket)
		if encs := AppendENCEncryptions(buf, b); len(encs) != 1+n || &encs[0] != &buf[0] || !slices.Equal(encs[1:], got.Encs) {
			t.Fatalf("n=%d: AppendENCEncryptions into a reused buffer: len %d, moved %v", n, len(encs), &encs[0] != &buf[0])
		}
	}
}

func TestENCCapacityIs46(t *testing.T) {
	// The paper's duplication-overhead bound uses 46 encryptions per
	// 1027-byte packet; the wire format must reproduce that constant.
	if MaxEncPerPacket != 46 {
		t.Fatalf("MaxEncPerPacket = %d, want 46", MaxEncPerPacket)
	}
}

func TestENCRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	if _, err := (&ENC{MsgID: 64}).Marshal(); err == nil {
		t.Error("7-bit MsgID accepted")
	}
	if _, err := (&ENC{Encs: randEncs(rng, MaxEncPerPacket+1)}).Marshal(); err == nil {
		t.Error("overfull packet accepted")
	}
	zero := randEncs(rng, 1)
	zero[0].ID = 0
	if _, err := (&ENC{Encs: zero}).Marshal(); err == nil {
		t.Error("encryption ID 0 accepted")
	}
	if _, err := ParseENC(make([]byte, 10)); err == nil {
		t.Error("short ENC parsed")
	}
	b, _ := (&PARITY{Payload: make([]byte, ParityPayloadLen)}).Marshal()
	if _, err := ParseENC(b); err == nil {
		t.Error("PARITY bytes parsed as ENC")
	}
}

func TestPARITYRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, ParityPayloadLen)
	p := &PARITY{MsgID: 63, BlockID: 255, Seq: 200, Payload: payload}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePARITY(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatal("PARITY round trip mismatch")
	}
}

func TestPARITYRejects(t *testing.T) {
	if _, err := (&PARITY{Payload: make([]byte, 5)}).Marshal(); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := ParsePARITY(make([]byte, PacketLen-1)); err == nil {
		t.Error("short packet parsed")
	}
}

func TestUSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, n := range []int{0, 1, 8} {
		p := &USR{MsgID: 5, NewID: 4099, MaxKID: 1364, Encs: randEncs(rng, n)}
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// USR packets must stay small: 5 bytes + 22 per encryption.
		if len(b) != 5+n*EncEntryLen {
			t.Fatalf("n=%d: USR length %d", n, len(b))
		}
		got, err := ParseUSR(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.NewID != p.NewID || got.MaxKID != p.MaxKID || len(got.Encs) != n {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
		for i := range got.Encs {
			if got.Encs[i] != p.Encs[i] {
				t.Fatalf("n=%d: encryption %d differs", n, i)
			}
		}
	}
}

func TestNACKRoundTrip(t *testing.T) {
	p := &NACK{MsgID: 9, UserID: 2100, Requests: []BlockRequest{{Count: 3, BlockID: 0}, {Count: 7, BlockID: 10}}}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseNACK(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("NACK round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestDetect(t *testing.T) {
	enc, _ := (&ENC{}).Marshal()
	par, _ := (&PARITY{Payload: make([]byte, ParityPayloadLen)}).Marshal()
	usr, _ := (&USR{}).Marshal()
	nack, _ := (&NACK{}).Marshal()
	for _, tc := range []struct {
		b    []byte
		want Type
	}{{enc, TypeENC}, {par, TypePARITY}, {usr, TypeUSR}, {nack, TypeNACK}} {
		got, err := Detect(tc.b)
		if err != nil || got != tc.want {
			t.Errorf("Detect = %v,%v; want %v", got, err, tc.want)
		}
	}
	if _, err := Detect(nil); err == nil {
		t.Error("Detect(nil) succeeded")
	}
}

// Property: any valid ENC header survives a marshal/parse round trip.
func TestQuickENCHeaders(t *testing.T) {
	f := func(msgID, blk, seq uint8, maxKID, frm, to uint16) bool {
		p := &ENC{MsgID: msgID & MaxMsgID, BlockID: blk, Seq: seq, MaxKID: maxKID, FrmID: frm, ToID: to}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseENC(b)
		if err != nil {
			return false
		}
		return got.headerOnly() == p.headerOnly()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func (p *ENC) headerOnly() [6]uint16 {
	return [6]uint16{uint16(p.MsgID), uint16(p.BlockID), uint16(p.Seq), p.MaxKID, p.FrmID, p.ToID}
}

func TestFECOffsetCoversIdentity(t *testing.T) {
	// Fields 1-4 (type+msgID, blockID, seq) must lie outside the
	// FEC-protected span so that parity packets can carry their own
	// identity; maxKID onward is inside.
	if FECOffset != 3 {
		t.Fatalf("FECOffset = %d, want 3", FECOffset)
	}
	if ParityPayloadLen != PacketLen-3 {
		t.Fatalf("ParityPayloadLen = %d", ParityPayloadLen)
	}
}
