package rekey

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Sentinel errors returned by Member.Ingest. Wrapped errors carry
// detail; match with errors.Is.
var (
	// ErrBadPacket: the bytes are not a packet a member can consume
	// (malformed, truncated, or a server-bound type such as NACK).
	ErrBadPacket = errors.New("rekey: bad packet")
	// ErrWrongMessage: a well-formed packet that does not apply to this
	// member's state -- its encryptions do not unwrap with the keys
	// held, or its IDs are inconsistent with the member's derived ID.
	ErrWrongMessage = errors.New("rekey: packet does not apply to this member")
	// ErrStale: a packet for a rekey message the member has already
	// completed; it carries no new information.
	ErrStale = errors.New("rekey: stale packet for a completed message")
)

// IngestResult is the typed outcome of feeding one packet to a Member.
type IngestResult struct {
	// Kind is the packet type consumed (ENC, PARITY or USR).
	Kind packet.Type
	// MsgID is the rekey message the packet belongs to.
	MsgID uint8
	// Block and Seq locate ENC/PARITY shards; both are -1 for USR.
	Block, Seq int
	// Duplicate reports a shard the member already held, or one its
	// block, holding k already, has no use for.
	Duplicate bool
	// Recovered reports that completion required FEC decoding (as
	// opposed to directly receiving the member's ENC or a USR).
	Recovered bool
	// Done reports that this packet completed the member's key
	// recovery for the current rekey message.
	Done bool
}

// Member is the client side of the rekey protocol: it ingests raw
// ENC/PARITY/USR packets, recovers its specific ENC packet (directly or
// by Reed-Solomon decoding), rederives its node ID each interval, and
// maintains its view of the group and auxiliary keys. It produces the
// NACK the user protocol (Fig. 27) would send at a round boundary.
//
// Rekey messages must be ingested in interval order (keys of one
// interval encrypt keys of the next); packets within a message may
// arrive in any order. Member is safe for concurrent use.
type Member struct {
	mu    sync.Mutex
	view  keytree.UserView // guarded by mu
	k     int
	coder *fec.Coder
	// cur is the one assembly the member ever has: a new message ID
	// resets it in place, so block records and shard buffers carry over.
	cur    msgAssembly // guarded by mu
	active bool        // cur holds a message; guarded by mu
	// free holds shard buffers released by finished assemblies, at most
	// maxFreeShards of them. Guarded by mu.
	free [][]byte
	// Decode scratch, built by the first decode and reused by every later
	// one: the k shards handed to the coder and the k reconstructed ENC
	// packets it fills from FECOffset on. Guarded by mu.
	shards []fec.Shard
	fulls  [][]byte
	spans  [][]byte
	// leaves holds a decoded block's k leaf hashes on a verifying
	// member, reduced in place to the block root: built by the first
	// check and reused by every later one. Guarded by mu.
	leaves []keys.MerkleHash
	// encs receives the entries of the member's own ENC packet, received
	// or decoded, for the view to pick its path from. Guarded by mu.
	encs [packet.MaxEncPerPacket]keytree.Encryption
	// trailer is the parse target of every datagram's auth trailer.
	trailer packet.AuthTrailer // guarded by mu
	// verifier, when non-nil, makes every ingested packet prove itself
	// into a signed interval Merkle root (see auth.go). Guarded by mu.
	verifier *keys.RootVerifier
}

// maxFreeShards bounds the shard buffers a member keeps between
// messages: one block's whole shard space, 256 KiB.
const maxFreeShards = fec.MaxShards

// msgAssembly accumulates one rekey message's shards.
type msgAssembly struct {
	msgID  uint8
	est    blockplan.Estimator
	maxKID int
	done   bool
	// blocks is indexed by block ID and reaches to the highest block the
	// member has a verified packet of.
	blocks []blockShards
}

// blockShards is what the member holds of one FEC block: at most k
// shards, any k of which decode it.
type blockShards struct {
	seqs []uint8  // shard indices held, in arrival order
	bufs [][]byte // their FEC spans, parallel to seqs
	// root is the block's verified Merkle subtree root (from an ENC
	// sub-proof or a PARITY aux root); a decoded block must reproduce it
	// before its encryptions are applied.
	root    keys.MerkleHash
	hasRoot bool
}

// NewMember creates a member from its registration credentials.
func NewMember(c Credentials) (*Member, error) {
	if c.Degree < 2 || c.BlockSize < 1 {
		return nil, fmt.Errorf("rekey: bad credentials: degree %d block size %d", c.Degree, c.BlockSize)
	}
	coder, err := fec.NewCoder(c.BlockSize, fec.MaxShards-c.BlockSize)
	if err != nil {
		return nil, err
	}
	return &Member{
		view:  *keytree.NewUserView(c.Degree, c.Member, c.NodeID, c.Key),
		k:     c.BlockSize,
		coder: coder,
	}, nil
}

// SetObs attaches a metrics registry to the member's FEC decoder
// (one decode_cache_miss per decode-matrix solve). Returns the Member
// for chaining.
func (m *Member) SetObs(r *obs.Registry) *Member {
	m.coder.SetObs(r)
	return m
}

// SetVerifier attaches an interval-authentication verifier (built over
// Server.SignerPublic): every ingested packet must then carry an auth
// trailer proving it into a signed interval Merkle root. The root's
// RSA signature is checked once per interval and cached; each packet
// costs only its O(log n) proof. Returns the Member for chaining.
func (m *Member) SetVerifier(v *keys.RootVerifier) *Member {
	m.mu.Lock()
	m.verifier = v
	m.mu.Unlock()
	return m
}

// ID returns the member's current node ID.
func (m *Member) ID() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.ID
}

// GroupKey returns the group key as this member knows it.
func (m *Member) GroupKey() (keys.Key, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.GroupKey()
}

// Keys returns a copy of all keys the member holds, by node ID.
func (m *Member) Keys() map[int]keys.Key {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]keys.Key, len(m.view.Keys))
	for id, k := range m.view.Keys {
		out[id] = k
	}
	return out
}

// Done reports whether the member has recovered its keys for the rekey
// message currently being assembled (true when idle).
func (m *Member) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.active || m.cur.done
}

// Ingest consumes one raw packet from the network and reports what it
// meant: which shard it was, whether it was a duplicate, and whether it
// completed the member's key recovery for the current rekey message
// (IngestResult.Done). Errors wrap the package sentinels (ErrBadPacket,
// ErrWrongMessage, ErrStale) for errors.Is dispatch; transports treat
// all three as non-fatal.
//
// Ingest keeps no reference to raw: what the member needs of a datagram
// it copies, so the caller may read the next one into the same buffer.
//
// A datagram costs what the member still needs from it. A packet of the
// message the member has completed is ErrStale on its first three bytes.
// Any other packet is verified in full -- trailer, leaf proof, signed
// root -- before its header reaches the block-ID estimator or its
// payload is stored, and only the member's own packet has its
// encryptions parsed.
func (m *Member) Ingest(raw []byte) (IngestResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if res, stale := m.stalePeekLocked(raw); stale {
		return res, ErrStale
	}
	raw, tr, err := m.splitAuthLocked(raw)
	if err != nil {
		return IngestResult{Block: -1, Seq: -1}, err
	}
	typ, err := packet.Detect(raw)
	if err != nil {
		return IngestResult{Block: -1, Seq: -1}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	switch typ {
	case packet.TypeENC:
		h, err := packet.ParseENCHeader(raw)
		if err != nil {
			return IngestResult{Kind: typ, Block: -1, Seq: -1}, fmt.Errorf("%w: %v", ErrBadPacket, err)
		}
		var blockRoot *keys.MerkleHash
		if m.verifier != nil {
			root, err := m.verifyENCAuth(raw, h, tr)
			if err != nil {
				return IngestResult{Kind: typ, MsgID: h.MsgID, Block: int(h.BlockID), Seq: int(h.Seq)}, err
			}
			blockRoot = &root
		}
		return m.ingestENCLocked(h, raw, blockRoot)
	case packet.TypePARITY:
		if len(raw) != packet.PacketLen {
			return IngestResult{Kind: typ, Block: -1, Seq: -1},
				fmt.Errorf("%w: PARITY length %d, want %d", ErrBadPacket, len(raw), packet.PacketLen)
		}
		res := IngestResult{Kind: typ, MsgID: raw[0] & packet.MaxMsgID, Block: int(raw[1]), Seq: int(raw[2])}
		var blockRoot *keys.MerkleHash
		if m.verifier != nil {
			root, err := m.verifyPARITYAuth(res.Block, tr)
			if err != nil {
				return res, err
			}
			blockRoot = &root
		}
		a := m.assemblyLocked(res.MsgID)
		blk := a.block(res.Block)
		if err := blk.recordRoot(res.Block, blockRoot); err != nil {
			return res, err
		}
		return m.addShardLocked(a, blk, res, raw[packet.FECOffset:])
	case packet.TypeUSR:
		p, err := packet.ParseUSR(raw)
		if err != nil {
			return IngestResult{Kind: typ, Block: -1, Seq: -1}, fmt.Errorf("%w: %v", ErrBadPacket, err)
		}
		if m.verifier != nil {
			if err := m.verifyUSRAuth(raw, tr); err != nil {
				return IngestResult{Kind: typ, MsgID: p.MsgID, Block: -1, Seq: -1}, err
			}
		}
		return m.ingestUSRLocked(p)
	default:
		return IngestResult{Kind: typ, Block: -1, Seq: -1},
			fmt.Errorf("%w: member received %v packet", ErrBadPacket, typ)
	}
}

// stalePeekLocked recognises a packet of the message the member has
// already completed from its type, message ID, block and sequence
// number, which sit in bytes 0-2 in front of any payload or trailer.
// Such a packet is neither stored nor applied whatever else it holds,
// so nothing else of it is read, verified or copied.
func (m *Member) stalePeekLocked(raw []byte) (IngestResult, bool) {
	if !m.active || !m.cur.done || len(raw) < packet.FECOffset || raw[0]&packet.MaxMsgID != m.cur.msgID {
		return IngestResult{}, false
	}
	res := IngestResult{Kind: packet.Type(raw[0] >> 6), MsgID: m.cur.msgID, Block: -1, Seq: -1}
	switch res.Kind {
	case packet.TypeENC, packet.TypePARITY:
		res.Block, res.Seq = int(raw[1]), int(raw[2])
	case packet.TypeUSR:
	default:
		return IngestResult{}, false // not a member's packet: ErrBadPacket, not stale
	}
	return res, true
}

// splitAuthLocked separates a datagram into packet bytes and auth
// trailer under the member's policy. With a verifier set, every packet
// must carry a structurally valid trailer. Without one, a well-formed
// trailer is stripped and ignored -- the member interoperates with an
// authenticating server without checking signatures -- but only when
// the stripped packet still has a plausible wire length, so plain
// fixed-length packets can never be misread as trailered ones.
func (m *Member) splitAuthLocked(raw []byte) ([]byte, *packet.AuthTrailer, error) {
	tr := &m.trailer
	inner, err := tr.Split(raw)
	if m.verifier == nil {
		if err != nil {
			return raw, nil, nil
		}
		switch tr.Kind {
		case packet.TypeENC, packet.TypePARITY:
			if len(inner) != packet.PacketLen {
				return raw, nil, nil
			}
		case packet.TypeUSR:
			if len(inner) < packet.USRHeaderLen || (len(inner)-packet.USRHeaderLen)%packet.EncEntryLen != 0 {
				return raw, nil, nil
			}
		}
		return inner, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: interval auth: %v", ErrBadPacket, err)
	}
	return inner, tr, nil
}

// verifyRootLocked recomputes and checks the interval root: proof up
// the top tree from a sub-tree root, then the cached RSA check.
func (m *Member) verifyRootLocked(subRoot keys.MerkleHash, topIndex int, tr *packet.AuthTrailer) error {
	root, ok := keys.VerifyMerkleProof(subRoot, topIndex, tr.NTop, tr.TopProof)
	if !ok {
		return fmt.Errorf("%w: interval auth: top proof does not verify", ErrBadPacket)
	}
	if _, err := m.verifier.VerifyRoot(root, tr.Sig); err != nil {
		return fmt.Errorf("%w: interval root signature: %v", ErrBadPacket, err)
	}
	return nil
}

// verifyENCAuth proves an ENC packet into the signed interval root and
// returns its block's subtree root.
func (m *Member) verifyENCAuth(inner []byte, p packet.ENCHeader, tr *packet.AuthTrailer) (keys.MerkleHash, error) {
	var zero keys.MerkleHash
	if tr.NSub != m.k || tr.LeafIndex != int(p.Seq) {
		return zero, fmt.Errorf("%w: interval auth: leaf position %d/%d does not match seq %d, k %d",
			ErrBadPacket, tr.LeafIndex, tr.NSub, p.Seq, m.k)
	}
	if int(p.BlockID) >= tr.NTop-1 {
		return zero, fmt.Errorf("%w: interval auth: block %d outside %d-block top tree",
			ErrBadPacket, p.BlockID, tr.NTop-1)
	}
	leaf := keys.LeafHash(keys.DomainENC, inner)
	blockRoot, ok := keys.VerifyMerkleProof(leaf, int(p.Seq), tr.NSub, tr.SubProof)
	if !ok {
		return zero, fmt.Errorf("%w: interval auth: block proof does not verify", ErrBadPacket)
	}
	if err := m.verifyRootLocked(blockRoot, int(p.BlockID), tr); err != nil {
		return zero, err
	}
	return blockRoot, nil
}

// verifyPARITYAuth proves a PARITY packet's claimed block root into
// the signed interval root. The parity payload itself is code, not a
// tree leaf; the decoded block is checked against the returned root
// after FEC recovery (decodeLocked).
func (m *Member) verifyPARITYAuth(block int, tr *packet.AuthTrailer) (keys.MerkleHash, error) {
	var zero keys.MerkleHash
	if !tr.HasAux || len(tr.SubProof) != 0 {
		return zero, fmt.Errorf("%w: interval auth: PARITY trailer without a block root", ErrBadPacket)
	}
	if block >= tr.NTop-1 {
		return zero, fmt.Errorf("%w: interval auth: block %d outside %d-block top tree",
			ErrBadPacket, block, tr.NTop-1)
	}
	if err := m.verifyRootLocked(tr.Aux, block, tr); err != nil {
		return zero, err
	}
	return tr.Aux, nil
}

// verifyUSRAuth proves a USR packet into the signed interval root (the
// USR subtree is the top tree's last leaf).
func (m *Member) verifyUSRAuth(inner []byte, tr *packet.AuthTrailer) error {
	leaf := keys.LeafHash(keys.DomainUSR, inner)
	usrRoot, ok := keys.VerifyMerkleProof(leaf, tr.LeafIndex, tr.NSub, tr.SubProof)
	if !ok {
		return fmt.Errorf("%w: interval auth: USR proof does not verify", ErrBadPacket)
	}
	return m.verifyRootLocked(usrRoot, tr.NTop-1, tr)
}

// recordRoot stores a packet's verified block root, rejecting a packet
// that contradicts an earlier verified root for the same block (two
// distinct signed intervals sharing a message ID).
func (b *blockShards) recordRoot(block int, root *keys.MerkleHash) error {
	if root == nil {
		return nil
	}
	if b.hasRoot && b.root != *root {
		return fmt.Errorf("%w: block %d root contradicts an earlier verified packet", ErrWrongMessage, block)
	}
	b.root, b.hasRoot = *root, true
	return nil
}

// assemblyLocked returns the assembly of message msgID: the current one,
// or the current one reset when a new message ID appears.
func (m *Member) assemblyLocked(msgID uint8) *msgAssembly {
	if !m.active || m.cur.msgID != msgID {
		m.releaseShardsLocked()
		m.cur.msgID, m.cur.est, m.cur.maxKID, m.cur.done = msgID, blockplan.NewEstimator(), 0, false
		m.active = true
	}
	return &m.cur
}

// block returns the record of block id, extending blocks to reach it.
// The pointer is good until the next call.
func (a *msgAssembly) block(id int) *blockShards {
	if id >= len(a.blocks) {
		if id >= cap(a.blocks) {
			a.blocks = append(a.blocks[:cap(a.blocks)], make([]blockShards, id+1-cap(a.blocks))...)
		}
		// Records past len were emptied when the assembly last let go
		// of them; their slices keep their capacity.
		a.blocks = a.blocks[:id+1]
	}
	return &a.blocks[id]
}

// finishLocked marks the current message complete. Nothing of it is
// needed any more: every later packet of it is stale.
func (m *Member) finishLocked() {
	m.cur.done = true
	m.releaseShardsLocked()
}

// releaseShardsLocked empties the current assembly's block records,
// handing their shard buffers to the next user. The free list grows
// once, to hold what the records release up to maxFreeShards.
func (m *Member) releaseShardsLocked() {
	held := 0
	for i := range m.cur.blocks {
		held += len(m.cur.blocks[i].bufs)
	}
	// Not slices.Grow: under -race its make is not folded into the
	// append, and the growth would cost two allocations instead of one.
	if want := len(m.free) + min(held, maxFreeShards-len(m.free)); want > cap(m.free) {
		m.free = append(make([][]byte, 0, want), m.free...)
	}
	for i := range m.cur.blocks {
		m.dropShardsLocked(&m.cur.blocks[i])
		m.cur.blocks[i].hasRoot = false
	}
	m.cur.blocks = m.cur.blocks[:0]
}

// dropShardsLocked forgets a block's shards, keeping its verified root.
func (m *Member) dropShardsLocked(b *blockShards) {
	for i, buf := range b.bufs {
		if len(m.free) < maxFreeShards {
			m.free = append(m.free, buf)
		}
		b.bufs[i] = nil
	}
	b.seqs, b.bufs = b.seqs[:0], b.bufs[:0]
}

// shardBufLocked returns a buffer for one shard's FEC span: a released
// one when there is one.
func (m *Member) shardBufLocked() []byte {
	if n := len(m.free); n > 0 {
		buf := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return buf
	}
	return make([]byte, packet.ParityPayloadLen)
}

func (m *Member) ingestENCLocked(h packet.ENCHeader, raw []byte, blockRoot *keys.MerkleHash) (IngestResult, error) {
	res := IngestResult{Kind: packet.TypeENC, MsgID: h.MsgID, Block: int(h.BlockID), Seq: int(h.Seq)}
	a := m.assemblyLocked(h.MsgID)
	blk := a.block(res.Block)
	if err := blk.recordRoot(res.Block, blockRoot); err != nil {
		return res, err
	}
	a.maxKID = int(h.MaxKID)
	// Rederive this interval's node ID before the range check.
	myID, ok := keytree.NewID(m.view.D, m.view.ID, int(h.MaxKID))
	if !ok {
		return res, fmt.Errorf("%w: member %d has no valid ID under maxKID %d",
			ErrWrongMessage, m.view.Member, h.MaxKID)
	}
	if int(h.FrmID) <= myID && myID <= int(h.ToID) {
		if err := m.view.Apply(int(h.MaxKID), packet.AppendENCEncryptions(m.encs[:0], raw)); err != nil {
			return res, fmt.Errorf("%w: %v", ErrWrongMessage, err)
		}
		m.finishLocked()
		res.Done = true
		return res, nil
	}
	a.est.Observe(myID, h, m.k, m.view.D)
	return m.addShardLocked(a, blk, res, raw[packet.FECOffset:])
}

// addShardLocked files one shard of block res.Block -- span is the
// FEC-protected part of an ENC or PARITY packet -- and decodes the block
// if this shard completes it.
func (m *Member) addShardLocked(a *msgAssembly, blk *blockShards, res IngestResult, span []byte) (IngestResult, error) {
	if !m.storeLocked(blk, uint8(res.Seq), span) {
		res.Duplicate = true
		return res, nil
	}
	// Any k shards decode a block, so it is tried once, when it first
	// holds k. The estimator's range only narrows: a block outside it
	// now never comes back in.
	if len(blk.seqs) < m.k || res.Block < a.est.Low || res.Block > a.est.High {
		return res, nil
	}
	return m.decodeLocked(blk, res)
}

func (m *Member) ingestUSRLocked(p *packet.USR) (IngestResult, error) {
	res := IngestResult{Kind: packet.TypeUSR, MsgID: p.MsgID, Block: -1, Seq: -1}
	m.assemblyLocked(p.MsgID)
	if err := m.view.Apply(int(p.MaxKID), p.Encs); err != nil {
		return res, fmt.Errorf("%w: %v", ErrWrongMessage, err)
	}
	if m.view.ID != int(p.NewID) {
		return res, fmt.Errorf("%w: USR says ID %d, derived %d", ErrWrongMessage, p.NewID, m.view.ID)
	}
	m.finishLocked()
	res.Done = true
	return res, nil
}

// storeLocked copies one shard's FEC span out of the caller's datagram
// into the block and reports whether it did: not a sequence number the
// block already holds, and not a (k+1)th shard -- any k decode it, so a
// block never holds more, whoever is sending.
func (m *Member) storeLocked(b *blockShards, seq uint8, span []byte) bool {
	n := len(b.seqs)
	if n >= m.k || bytes.IndexByte(b.seqs, seq) >= 0 {
		return false
	}
	if cap(b.seqs) == 0 {
		// Room for the block's k shards, once: the slices outlive the
		// messages that fill them.
		b.seqs, b.bufs = make([]uint8, 0, m.k), make([][]byte, 0, m.k)
	}
	buf := m.shardBufLocked()
	copy(buf, span)
	b.seqs, b.bufs = b.seqs[:n+1], b.bufs[:n+1]
	b.seqs[n], b.bufs[n] = seq, buf
	return true
}

// decodeLocked reconstructs a block that holds k shards and applies the
// member's packet if the block contains it. A block that fails its check
// is dropped, to be rebuilt from whatever arrives next.
func (m *Member) decodeLocked(blk *blockShards, res IngestResult) (IngestResult, error) {
	if m.fulls == nil {
		m.shards, m.fulls, m.spans = make([]fec.Shard, m.k), make([][]byte, m.k), make([][]byte, m.k)
		slab := make([]byte, m.k*packet.PacketLen)
		for seq := range m.fulls {
			m.fulls[seq] = slab[seq*packet.PacketLen : (seq+1)*packet.PacketLen : (seq+1)*packet.PacketLen]
		}
	}
	for i, seq := range blk.seqs {
		m.shards[i] = fec.Shard{Index: int(seq), Data: blk.bufs[i]}
	}
	// The coder writes each reconstructed span straight into its packet.
	for seq, full := range m.fulls {
		full[0], full[1], full[2] = byte(packet.TypeENC)<<6|res.MsgID, byte(res.Block), byte(seq)
		m.spans[seq] = full[packet.FECOffset:]
	}
	if err := m.coder.DecodeInto(m.spans, m.shards); err != nil || !m.decodedBlockOKLocked(blk) {
		m.dropShardsLocked(blk)
		return res, nil
	}
	for _, full := range m.fulls {
		h, _ := packet.ParseENCHeader(full) // cannot fail: PacketLen bytes typed ENC above
		myID, ok := keytree.NewID(m.view.D, m.view.ID, int(h.MaxKID))
		if !ok || myID < int(h.FrmID) || int(h.ToID) < myID {
			continue
		}
		if err := m.view.Apply(int(h.MaxKID), packet.AppendENCEncryptions(m.encs[:0], full)); err != nil {
			return res, fmt.Errorf("%w: %v", ErrWrongMessage, err)
		}
		m.finishLocked()
		res.Done, res.Recovered = true, true
		return res, nil
	}
	return res, nil
}

// decodedBlockOKLocked checks the block just decoded into m.fulls.
// Parity payloads are not Merkle leaves, so on a verifying member a
// decoded block proves itself by reproducing, from its k reconstructed
// packets, the verified block root its shards arrived under; a mismatch
// means at least one stored shard was forged. A member that verifies
// nothing can still tell a block of ENC packets from the noise a
// corrupt shard decodes to: every slot a header the server could have
// written, all under one maxKID.
func (m *Member) decodedBlockOKLocked(blk *blockShards) bool {
	if m.verifier != nil {
		if m.leaves == nil {
			m.leaves = make([]keys.MerkleHash, m.k)
		}
		return blk.hasRoot && blockRootMatches(m.leaves, m.fulls, blk.root)
	}
	for _, full := range m.fulls {
		h, _ := packet.ParseENCHeader(full) // cannot fail: decodeLocked built the buffers
		if full[3] > 1 || h.FrmID > h.ToID || h.MaxKID != binary.BigEndian.Uint16(m.fulls[0][4:]) {
			return false
		}
	}
	return true
}

// blockRootMatches recomputes a decoded block's Merkle subtree root
// from its k reconstructed packets -- hashed 16 to a kernel call into
// leaves, a scratch of k hashes, and reduced there -- and compares it
// to the verified root its shards arrived under.
func blockRootMatches(leaves []keys.MerkleHash, fulls [][]byte, want keys.MerkleHash) bool {
	var hb keys.LeafBatch
	for i, full := range fulls {
		hb.Add(&leaves[i], keys.DomainENC, full)
	}
	hb.Flush()
	return keys.MerkleRoot(leaves) == want
}

// NACK returns the feedback the member would send at a round boundary:
// the parity packets needed per candidate block (Fig. 27). It returns
// ok=false when the member is done or has seen nothing of the current
// message.
func (m *Member) NACK() (*packet.NACK, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := &m.cur
	if !m.active || a.done || len(a.blocks) == 0 {
		return nil, false
	}
	lo, hi := a.est.Low, a.est.High
	// Clamp the upper bound to blocks we can name on the wire.
	if maxSeen := len(a.blocks) - 1; hi > maxSeen+8 {
		hi = maxSeen + 8 // rule-6 bound can exceed reality; stay modest
	}
	if hi > 0xff {
		hi = 0xff
	}
	// Report the rederived (post-batch) node ID so the server can
	// address a USR packet without translation.
	id := m.view.ID
	if nid, ok := keytree.NewID(m.view.D, m.view.ID, a.maxKID); ok {
		id = nid
	}
	n := &packet.NACK{MsgID: a.msgID, UserID: uint16(id)}
	for b := lo; b <= hi; b++ {
		need := m.k
		if b < len(a.blocks) {
			need -= len(a.blocks[b].seqs)
		}
		if need > 0 {
			n.Requests = append(n.Requests, packet.BlockRequest{Count: uint8(need), BlockID: uint8(b)})
		}
	}
	if len(n.Requests) == 0 {
		// Range fully stocked yet undecodable cannot happen (the true
		// block decodes); report one packet for robustness.
		n.Requests = append(n.Requests, packet.BlockRequest{Count: 1, BlockID: uint8(lo)})
	}
	return n, true
}
