package packet

import (
	"bytes"
	"testing"

	"repro/internal/keytree"
)

// fuzzEncs derives a (possibly empty) encryption list from fuzz bytes;
// IDs are made non-zero because zero is the wire padding sentinel.
func fuzzEncs(raw []byte, max int) []keytree.Encryption {
	var encs []keytree.Encryption
	for len(raw) >= 5 && len(encs) < max {
		var e keytree.Encryption
		e.ID = uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3]) | 1
		for i := range e.Wrapped {
			e.Wrapped[i] = raw[4] ^ byte(i)
		}
		encs = append(encs, e)
		raw = raw[5:]
	}
	return encs
}

// FuzzPacketRoundTrip exercises both directions of every wire format:
// structured packets built from fuzz input must survive
// Marshal -> Parse -> Marshal byte-identically, and raw fuzz bytes fed
// to the parsers must never panic; whatever they accept must re-marshal
// to a parseable packet.
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add(uint8(7), uint8(1), uint8(2), uint16(9), uint16(3), uint16(12), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), uint16(0), []byte{})
	f.Add(uint8(63), uint8(255), uint8(255), uint16(65535), uint16(1), uint16(65535), bytes.Repeat([]byte{0xA5}, 64))
	f.Fuzz(func(t *testing.T, msgID, blockID, seq uint8, maxKID, frmID, toID uint16, raw []byte) {
		msgID &= MaxMsgID

		enc := &ENC{
			MsgID: msgID, BlockID: blockID, Seq: seq,
			Dup:    seq&1 != 0,
			MaxKID: maxKID, FrmID: frmID, ToID: toID,
			Encs: fuzzEncs(raw, MaxEncPerPacket),
		}
		b, err := enc.Marshal()
		if err != nil {
			t.Fatalf("ENC.Marshal: %v", err)
		}
		got, err := ParseENC(b)
		if err != nil {
			t.Fatalf("ParseENC of marshalled packet: %v", err)
		}
		b2, err := got.Marshal()
		if err != nil {
			t.Fatalf("re-Marshal: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatal("ENC did not round-trip byte-identically")
		}

		par := &PARITY{MsgID: msgID, BlockID: blockID, Seq: seq, Payload: make([]byte, ParityPayloadLen)}
		for i := 0; i < len(par.Payload) && i < len(raw); i++ {
			par.Payload[i] = raw[i]
		}
		b, err = par.Marshal()
		if err != nil {
			t.Fatalf("PARITY.Marshal: %v", err)
		}
		gotPar, err := ParsePARITY(b)
		if err != nil {
			t.Fatalf("ParsePARITY of marshalled packet: %v", err)
		}
		b2, err = gotPar.Marshal()
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("PARITY did not round-trip (err=%v)", err)
		}

		usr := &USR{MsgID: msgID, NewID: frmID, MaxKID: maxKID, Encs: fuzzEncs(raw, 64)}
		b, err = usr.Marshal()
		if err != nil {
			t.Fatalf("USR.Marshal: %v", err)
		}
		gotUsr, err := ParseUSR(b)
		if err != nil {
			t.Fatalf("ParseUSR of marshalled packet: %v", err)
		}
		b2, err = gotUsr.Marshal()
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("USR did not round-trip (err=%v)", err)
		}

		nack := &NACK{MsgID: msgID, UserID: toID}
		for i := 0; i+1 < len(raw) && i < 32; i += 2 {
			nack.Requests = append(nack.Requests, BlockRequest{Count: raw[i], BlockID: raw[i+1]})
		}
		b, err = nack.Marshal()
		if err != nil {
			t.Fatalf("NACK.Marshal: %v", err)
		}
		gotNack, err := ParseNACK(b)
		if err != nil {
			t.Fatalf("ParseNACK of marshalled packet: %v", err)
		}
		b2, err = gotNack.Marshal()
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("NACK did not round-trip (err=%v)", err)
		}

		// Hostile direction: the parsers must tolerate arbitrary bytes.
		// Anything they accept must re-marshal into bytes they accept
		// again (parse/marshal reaches a fixed point).
		if _, herr := ParseENCHeader(raw); herr == nil {
			if _, err := ParseENC(raw); err != nil {
				t.Fatalf("ParseENCHeader accepts what ParseENC rejects: %v", err)
			}
		}
		if p, err := ParseENC(raw); err == nil {
			if h, err := ParseENCHeader(raw); err != nil || h.MsgID != p.MsgID || h.BlockID != p.BlockID || h.Seq != p.Seq ||
				h.Dup != p.Dup || h.MaxKID != p.MaxKID || h.FrmID != p.FrmID || h.ToID != p.ToID {
				t.Fatalf("ParseENCHeader = %+v, %v; ParseENC = %+v", h, err, p)
			}
			if b, err := p.Marshal(); err != nil {
				t.Fatalf("re-Marshal of parsed hostile ENC: %v", err)
			} else if _, err := ParseENC(b); err != nil {
				t.Fatalf("re-Parse of parsed hostile ENC: %v", err)
			}
		}
		if p, err := ParsePARITY(raw); err == nil {
			if _, err := p.Marshal(); err != nil {
				t.Fatalf("re-Marshal of parsed hostile PARITY: %v", err)
			}
		}
		if p, err := ParseUSR(raw); err == nil {
			if _, err := p.Marshal(); err != nil {
				t.Fatalf("re-Marshal of parsed hostile USR: %v", err)
			}
		}
		if p, err := ParseNACK(raw); err == nil {
			if _, err := p.Marshal(); err != nil {
				t.Fatalf("re-Marshal of parsed hostile NACK: %v", err)
			}
		}
		Detect(raw)
	})
}
