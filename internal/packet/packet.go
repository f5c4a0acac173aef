// Package packet defines the four wire formats of the rekey transport
// protocol (Appendix A of the protocol paper): ENC packets carrying
// encrypted keys, PARITY packets carrying Reed-Solomon redundancy, USR
// packets unicast to individual stragglers, and NACK feedback packets.
//
// All multicast packets are a fixed PacketLen bytes because FEC encoding
// requires fixed-length blocks; ENC packets are zero-padded, which is
// unambiguous because no encryption has ID zero (the root is never an
// encrypting key).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/keys"
	"repro/internal/keytree"
)

// Type is the 2-bit packet type carried in the top bits of byte 0.
type Type uint8

// Packet types.
const (
	TypeENC Type = iota
	TypePARITY
	TypeUSR
	TypeNACK
)

func (t Type) String() string {
	switch t {
	case TypeENC:
		return "ENC"
	case TypePARITY:
		return "PARITY"
	case TypeUSR:
		return "USR"
	case TypeNACK:
		return "NACK"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Wire-format constants.
const (
	// PacketLen is the fixed length of ENC and PARITY packets: the
	// paper's 1027-byte packets.
	PacketLen = 1027
	// ENCHeaderLen is bytes 0..9: type+msgID, blockID, seq, flags,
	// maxKID, frmID, toID.
	ENCHeaderLen = 10
	// FECOffset is where FEC-protected content begins: fields 5-8 of an
	// ENC packet (maxKID onward) are covered by parity; fields 1-4
	// (type, message ID, block ID, sequence number) identify the packet
	// and are not.
	FECOffset = 3
	// EncEntryLen is one <ID, encryption> element: 4-byte encrypting-key
	// ID plus the wrapped key.
	EncEntryLen = 4 + keys.WrappedSize
	// MaxEncPerPacket is how many encryptions fit in one ENC packet:
	// (1027-10)/22 = 46, the constant the paper uses when bounding
	// duplication overhead.
	MaxEncPerPacket = (PacketLen - ENCHeaderLen) / EncEntryLen
	// MaxMsgID is the largest rekey message ID (6-bit field).
	MaxMsgID = 1<<6 - 1
)

// ENC is a multicast packet carrying the encryptions for the users whose
// IDs fall in [FrmID, ToID].
type ENC struct {
	MsgID   uint8 // 6-bit rekey message ID
	BlockID uint8
	Seq     uint8 // sequence number within the block
	// Dup marks a last-block padding duplicate; duplicates count as FEC
	// shards but are excluded from block-ID estimation.
	Dup    bool
	MaxKID uint16
	FrmID  uint16
	ToID   uint16
	Encs   []keytree.Encryption
}

// Marshal renders the packet into exactly PacketLen bytes.
func (p *ENC) Marshal() ([]byte, error) {
	b := make([]byte, PacketLen)
	if err := p.MarshalInto(b); err != nil {
		return nil, err
	}
	return b, nil
}

// MarshalInto renders the packet into b, which must be PacketLen bytes
// (a run of a caller's slab, say); whatever b held is overwritten.
func (p *ENC) MarshalInto(b []byte) error {
	h := ENCHeader{
		MsgID: p.MsgID, BlockID: p.BlockID, Seq: p.Seq, Dup: p.Dup,
		MaxKID: p.MaxKID, FrmID: p.FrmID, ToID: p.ToID,
	}
	if err := PutENCHeader(b, &h, len(p.Encs)); err != nil {
		return err
	}
	off := ENCHeaderLen
	for i := range p.Encs {
		if err := PutEncEntry(b[off:], &p.Encs[i]); err != nil {
			return err
		}
		off += EncEntryLen
	}
	clear(b[off:])
	return nil
}

// PutENCHeader writes h into the first ENCHeaderLen bytes of b, the
// PacketLen bytes of an ENC packet that carries n encryptions. It
// refuses what MarshalInto refuses before any entry: a buffer of another
// length, a message ID over 6 bits, more than MaxEncPerPacket
// encryptions. The entries follow at ENCHeaderLen (PutEncEntry), then
// zero padding.
func PutENCHeader(b []byte, h *ENCHeader, n int) error {
	if len(b) != PacketLen {
		return fmt.Errorf("packet: ENC buffer of %d bytes, want %d", len(b), PacketLen)
	}
	if h.MsgID > MaxMsgID {
		return fmt.Errorf("packet: message ID %d exceeds 6 bits", h.MsgID)
	}
	if n > MaxEncPerPacket {
		return fmt.Errorf("packet: %d encryptions exceed capacity %d", n, MaxEncPerPacket)
	}
	b[0] = byte(TypeENC)<<6 | h.MsgID
	b[1] = h.BlockID
	b[2] = h.Seq
	b[3] = 0
	if h.Dup {
		b[3] = 1
	}
	binary.BigEndian.PutUint16(b[4:], h.MaxKID)
	binary.BigEndian.PutUint16(b[6:], h.FrmID)
	binary.BigEndian.PutUint16(b[8:], h.ToID)
	return nil
}

// errPaddingID refuses an ENC entry with ID 0, which marks the padding.
var errPaddingID = errors.New("packet: encryption ID 0 is reserved for padding")

// PutEncEntry writes e as an ENC packet's <ID, encryption> element into
// the first EncEntryLen bytes of b. ID 0 is refused: it marks where the
// padding begins.
func PutEncEntry(b []byte, e *keytree.Encryption) error {
	if e.ID == 0 {
		return errPaddingID
	}
	binary.BigEndian.PutUint32(b, e.ID)
	copy(b[4:EncEntryLen], e.Wrapped[:])
	return nil
}

// ENCHeader is the fixed ENCHeaderLen-byte head of an ENC packet: all a
// receiver needs to tell whether the packet is its own and, if not, to
// bound its block ID from it.
type ENCHeader struct {
	MsgID   uint8
	BlockID uint8
	Seq     uint8
	Dup     bool
	MaxKID  uint16
	FrmID   uint16
	ToID    uint16
}

// ParseENCHeader decodes an ENC packet's header without reading its
// encryptions; it accepts exactly the packets ParseENC accepts.
func ParseENCHeader(b []byte) (ENCHeader, error) {
	if len(b) != PacketLen {
		return ENCHeader{}, fmt.Errorf("packet: ENC length %d, want %d", len(b), PacketLen)
	}
	if Type(b[0]>>6) != TypeENC {
		return ENCHeader{}, fmt.Errorf("packet: type %v, want ENC", Type(b[0]>>6))
	}
	return ENCHeader{
		MsgID:   b[0] & MaxMsgID,
		BlockID: b[1],
		Seq:     b[2],
		Dup:     b[3]&1 != 0,
		MaxKID:  binary.BigEndian.Uint16(b[4:]),
		FrmID:   binary.BigEndian.Uint16(b[6:]),
		ToID:    binary.BigEndian.Uint16(b[8:]),
	}, nil
}

// AppendENCEncryptions appends to dst the encryptions of an ENC packet
// whose header ParseENCHeader accepted: the entries run from
// ENCHeaderLen to the first zero ID, where the padding begins. A dst
// without room for them is grown to fit exactly, so a reused one stops
// allocating and a nil one costs one allocation (none for no entries).
func AppendENCEncryptions(dst []keytree.Encryption, b []byte) []keytree.Encryption {
	n := 0
	for off := ENCHeaderLen; off+EncEntryLen <= len(b) && binary.BigEndian.Uint32(b[off:]) != 0; off += EncEntryLen {
		n++
	}
	if len(dst)+n > cap(dst) {
		dst = append(make([]keytree.Encryption, 0, len(dst)+n), dst...)
	}
	for off := ENCHeaderLen; off < ENCHeaderLen+n*EncEntryLen; off += EncEntryLen {
		e := keytree.Encryption{ID: binary.BigEndian.Uint32(b[off:])}
		copy(e.Wrapped[:], b[off+4:])
		dst = append(dst, e)
	}
	return dst
}

// ParseENC decodes an ENC packet produced by Marshal.
func ParseENC(b []byte) (*ENC, error) {
	h, err := ParseENCHeader(b)
	if err != nil {
		return nil, err
	}
	return &ENC{
		MsgID: h.MsgID, BlockID: h.BlockID, Seq: h.Seq, Dup: h.Dup,
		MaxKID: h.MaxKID, FrmID: h.FrmID, ToID: h.ToID,
		Encs: AppendENCEncryptions(nil, b),
	}, nil
}

// PARITY is a multicast packet carrying FEC redundancy for one block.
// Its payload protects bytes FECOffset..PacketLen of the block's ENC
// packets.
type PARITY struct {
	MsgID   uint8
	BlockID uint8
	Seq     uint8 // shard index within the block; k+i for parity i
	Payload []byte
}

// ParityPayloadLen is the FEC-protected span of an ENC packet.
const ParityPayloadLen = PacketLen - FECOffset

// Marshal renders the packet into exactly PacketLen bytes.
func (p *PARITY) Marshal() ([]byte, error) {
	return AppendParity(make([]byte, 0, PacketLen), p.MsgID, p.BlockID, p.Seq, p.Payload)
}

// AppendParity appends a PARITY packet's PacketLen wire bytes to dst
// without requiring a PARITY struct, so a send path holding only the
// cached payload slice can build the datagram with zero allocations.
func AppendParity(dst []byte, msgID, blockID, seq uint8, payload []byte) ([]byte, error) {
	if msgID > MaxMsgID {
		return nil, fmt.Errorf("packet: message ID %d exceeds 6 bits", msgID)
	}
	if len(payload) != ParityPayloadLen {
		return nil, fmt.Errorf("packet: parity payload %d bytes, want %d", len(payload), ParityPayloadLen)
	}
	dst = append(dst, byte(TypePARITY)<<6|msgID, blockID, seq)
	return append(dst, payload...), nil
}

// ParsePARITY decodes a PARITY packet produced by Marshal.
func ParsePARITY(b []byte) (*PARITY, error) {
	if len(b) != PacketLen {
		return nil, fmt.Errorf("packet: PARITY length %d, want %d", len(b), PacketLen)
	}
	if Type(b[0]>>6) != TypePARITY {
		return nil, fmt.Errorf("packet: type %v, want PARITY", Type(b[0]>>6))
	}
	return &PARITY{
		MsgID:   b[0] & MaxMsgID,
		BlockID: b[1],
		Seq:     b[2],
		Payload: append([]byte(nil), b[FECOffset:]...),
	}, nil
}

// USR is a unicast packet carrying exactly one user's encryptions plus
// its (possibly changed) user ID. It is small: 3 + 22h bytes for a tree
// of height h.
type USR struct {
	MsgID  uint8
	NewID  uint16
	MaxKID uint16
	Encs   []keytree.Encryption
}

// USRHeaderLen is bytes 0..4 of a USR packet: type+msgID, newID, maxKID.
const USRHeaderLen = 5

// Marshal renders the packet; USR packets are variable length.
func (p *USR) Marshal() ([]byte, error) {
	b, err := AppendUSRHeader(make([]byte, 0, USRHeaderLen+len(p.Encs)*EncEntryLen), p.MsgID, p.NewID, p.MaxKID)
	if err != nil {
		return nil, err
	}
	for i := range p.Encs {
		b = AppendEncEntry(b, &p.Encs[i])
	}
	return b, nil
}

// AppendUSRHeader appends a USR packet's header to dst; the packet is
// that header followed by one AppendEncEntry per encryption, so a
// caller holding the encryptions elsewhere builds the datagram without
// a USR struct or a slice of its own.
func AppendUSRHeader(dst []byte, msgID uint8, newID, maxKID uint16) ([]byte, error) {
	if msgID > MaxMsgID {
		return nil, fmt.Errorf("packet: message ID %d exceeds 6 bits", msgID)
	}
	dst = append(dst, byte(TypeUSR)<<6|msgID)
	dst = binary.BigEndian.AppendUint16(dst, newID)
	return binary.BigEndian.AppendUint16(dst, maxKID), nil
}

// AppendEncEntry appends one <ID, encryption> element, EncEntryLen bytes.
func AppendEncEntry(dst []byte, e *keytree.Encryption) []byte {
	dst = binary.BigEndian.AppendUint32(dst, e.ID)
	return append(dst, e.Wrapped[:]...)
}

// ParseUSR decodes a USR packet produced by Marshal.
func ParseUSR(b []byte) (*USR, error) {
	if len(b) < USRHeaderLen || (len(b)-USRHeaderLen)%EncEntryLen != 0 {
		return nil, fmt.Errorf("packet: bad USR length %d", len(b))
	}
	if Type(b[0]>>6) != TypeUSR {
		return nil, fmt.Errorf("packet: type %v, want USR", Type(b[0]>>6))
	}
	p := &USR{
		MsgID:  b[0] & MaxMsgID,
		NewID:  binary.BigEndian.Uint16(b[1:]),
		MaxKID: binary.BigEndian.Uint16(b[3:]),
	}
	for off := USRHeaderLen; off < len(b); off += EncEntryLen {
		var e keytree.Encryption
		e.ID = binary.BigEndian.Uint32(b[off:])
		copy(e.Wrapped[:], b[off+4:])
		p.Encs = append(p.Encs, e)
	}
	return p, nil
}

// BlockRequest is one element of a NACK: the user needs Count more
// packets of block BlockID to reach k.
type BlockRequest struct {
	Count   uint8
	BlockID uint8
}

// NACK is user feedback: the PARITY packets needed per block.
type NACK struct {
	MsgID    uint8
	UserID   uint16 // requesting user's node ID (lets the server unicast later)
	Requests []BlockRequest
}

// Marshal renders the packet; NACK packets are variable length.
func (p *NACK) Marshal() ([]byte, error) {
	if p.MsgID > MaxMsgID {
		return nil, fmt.Errorf("packet: message ID %d exceeds 6 bits", p.MsgID)
	}
	b := make([]byte, 3+2*len(p.Requests))
	b[0] = byte(TypeNACK)<<6 | p.MsgID
	binary.BigEndian.PutUint16(b[1:], p.UserID)
	off := 3
	for _, r := range p.Requests {
		b[off] = r.Count
		b[off+1] = r.BlockID
		off += 2
	}
	return b, nil
}

// ParseNACK decodes a NACK packet produced by Marshal.
func ParseNACK(b []byte) (*NACK, error) {
	if len(b) < 3 || (len(b)-3)%2 != 0 {
		return nil, fmt.Errorf("packet: bad NACK length %d", len(b))
	}
	if Type(b[0]>>6) != TypeNACK {
		return nil, fmt.Errorf("packet: type %v, want NACK", Type(b[0]>>6))
	}
	p := &NACK{MsgID: b[0] & MaxMsgID, UserID: binary.BigEndian.Uint16(b[1:])}
	for off := 3; off < len(b); off += 2 {
		p.Requests = append(p.Requests, BlockRequest{Count: b[off], BlockID: b[off+1]})
	}
	return p, nil
}

// Detect returns the type of a raw packet without fully parsing it.
func Detect(b []byte) (Type, error) {
	if len(b) == 0 {
		return 0, errors.New("packet: empty")
	}
	return Type(b[0] >> 6), nil
}
