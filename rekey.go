// Package rekey is a scalable and reliable group rekeying library: the
// key management and rekey transport system of "Reliable group
// rekeying: a performance analysis" (SIGCOMM 2001) and its companion
// protocol paper.
//
// A Server maintains a logical key hierarchy (key tree) over the group
// members and processes joins and leaves in periodic batches. Each
// batch yields a RekeyMessage: ENC packets produced by the
// user-oriented key assignment algorithm (every member's encryptions in
// one packet), partitioned into FEC blocks for which Reed-Solomon
// PARITY packets can be generated, plus per-member USR packets for the
// unicast stage. A Member consumes those packets -- in any mixture of
// direct reception, FEC recovery and unicast -- and maintains the
// member's view of the group key.
//
// The loss-recovery policy (rounds, NACKs, adaptive proactivity) lives
// in internal/protocol, driven over sockets by internal/udptrans and
// over a simulated network by internal/vsim; this package is the
// key-management core and the member both share.
//
// Servers are built with functional options mirroring keytree.New:
// NewServer(WithTuning(t), WithKeySeed(seed), WithObs(reg)). The
// options populate a validated Config core embedding Tuning (the
// shared protocol knobs -- k, d, rho0, numNACK, round budget --
// defined and defaulted once in internal/tuning and reused by every
// layer).
// Passing a registry via WithObs threads live metrics and trace events
// through the server, the message builder and the transports; a nil
// registry costs only a nil check. Member.Ingest reports typed
// outcomes: an IngestResult plus errors wrapping the ErrBadPacket,
// ErrWrongMessage and ErrStale sentinels for errors.Is dispatch.
//
// The server owns one keytree.Tree and the interval's pending join and
// leave queues; Rekey runs the single pipeline over them: marking and
// key wrapping (keytree), key assignment (assign), block partitioning
// (blockplan), interval signing (auth.go) and, on demand, FEC parity.
package rekey

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/assign"
	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/tuning"
)

// MemberID identifies a group member across its lifetime.
type MemberID = keytree.Member

// Credentials is what registration hands a member: its u-node ID, its
// individual key, and the group constants it needs client-side.
type Credentials struct {
	Member    MemberID
	NodeID    int
	Key       keys.Key
	Degree    int
	BlockSize int
}

// Tuning is the protocol's shared tuning core: the single definition
// of k, tree degree, rho0, the NACK targets and the round budget. It
// is embedded here, in vsim.Config, and read by the UDP transport,
// so every layer agrees on one validated set of knobs.
type Tuning = tuning.Tuning

// DefaultTuning returns the paper's default knobs (DESIGN.md): k=10,
// d=4, rho0=1, numNACK=20 (cap 100), unicast after 2 multicast rounds.
func DefaultTuning() Tuning { return tuning.Default() }

// Config is the server's validated options core; NewServer's
// functional options populate it.
type Config struct {
	// Tuning holds the shared protocol knobs, DefaultTuning unless
	// WithTuning replaces them; a zero knob means zero. The server
	// itself consumes K and Degree, while the transports read the rest
	// through Server.Tuning so rho0, the NACK target and the round
	// budget are configured in exactly one place.
	Tuning
	// KeySeed, when non-zero, makes key generation deterministic --
	// for tests and experiments only.
	KeySeed uint64
	// Obs, when non-nil, receives the server's metrics and trace
	// events. A nil registry costs the pipeline nothing.
	Obs *obs.Registry
	// Signer, when non-nil, turns on amortized interval signing: each
	// rekey message's Merkle root is signed once and every packet
	// carries an inclusion proof plus that signature (see auth.go).
	Signer *keys.Signer
}

// Option configures a Server (see NewServer).
type Option func(*Config)

// WithTuning replaces the shared protocol knobs whole: no zero field
// is filled in, so start a partial Tuning from DefaultTuning.
func WithTuning(t Tuning) Option { return func(c *Config) { c.Tuning = t } }

// WithKeySeed makes key generation deterministic -- tests and
// experiments only.
func WithKeySeed(seed uint64) Option { return func(c *Config) { c.KeySeed = seed } }

// WithObs attaches an observability registry to the server, the
// message builder and the key tree pipeline.
func WithObs(reg *obs.Registry) Option { return func(c *Config) { c.Obs = reg } }

// Server is the group key server: registration, key management and
// rekey message construction. It is safe for concurrent use.
//
// Two locks split its state. mu serialises Rekey and guards the message
// state; treeMu guards the key tree and the pending queues and is held
// only for the tree batch itself, so QueueJoin, QueueLeave, Credentials
// and PathKeys never wait for a concurrent Rekey's assignment or signing
// stages. Rekey takes treeMu while holding mu, never the reverse.
type Server struct {
	cfg Config
	obs *obs.Registry

	mu sync.Mutex
	// The message state below is guarded by mu.
	msgSeq uint8 // guarded by mu

	treeMu sync.Mutex
	// The key tree and the next interval's batch are guarded by treeMu.
	tree   *keytree.Tree     // guarded by treeMu
	joins  []MemberID        // guarded by treeMu
	leaves []MemberID        // guarded by treeMu
	queued map[MemberID]bool // guarded by treeMu
}

// NewServer creates a server with an empty group. With no options it
// uses the paper's default tuning (DefaultTuning), a CSPRNG key
// generator and no observability.
func NewServer(opts ...Option) (*Server, error) {
	cfg := Config{Tuning: DefaultTuning()}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Tuning.Validate(); err != nil {
		return nil, fmt.Errorf("rekey: %w", err)
	}
	gen := keys.NewGenerator()
	if cfg.KeySeed != 0 {
		gen = keys.NewDeterministicGenerator(cfg.KeySeed)
	}
	return &Server{
		cfg:    cfg,
		obs:    cfg.Obs,
		tree:   keytree.New(cfg.Degree, gen, keytree.WithObs(cfg.Obs)),
		queued: make(map[MemberID]bool),
	}, nil
}

// Tuning returns the server's validated tuning.
// The transports read rho0 and the round budget from here so the knobs
// stay defined in one place.
func (s *Server) Tuning() Tuning { return s.cfg.Tuning }

// Obs returns the registry the server reports to (nil when
// unobserved). The UDP transport shares it.
func (s *Server) Obs() *obs.Registry { return s.obs }

// ErrGroupFull is returned by QueueJoin when the join would take the
// group past MaxMembers.
var ErrGroupFull = errors.New("rekey: group full")

// MaxMembers is the largest group of degree d whose every node ID fits
// the 16-bit node-ID fields of the wire format: d^h for the deepest
// level h whose last node ID, (d^(h+1)-1)/(d-1) - 1, is at most 0xffff.
// That is 16 384 at d = 4 and 32 768 at d = 2.
//
// The bound holds because the marking splits only when the u-region
// window (nk, d*nk+d] is packed with users, nk being the largest k-node
// ID. Splitting node s therefore needs (d-1)(s-1)+d users already, plus
// the joiner it makes room for. If s were on level h or deeper, that is
// (d-1)s+2 >= d^h+1 users, since the nodes above level h number
// (d^h-1)/(d-1). So a batch that ends with at most d^h users splits only
// nodes above level h, every k-node stays above level h, and every
// user, a child of a k-node, sits at or above level h. Leaves are
// removed before joiners are placed, so no batch passes through a larger
// group on its way.
func MaxMembers(d int) int {
	n, last := 1, 0 // a level's node count and its last node ID, from the root
	for last+n*d <= 0xffff {
		n *= d
		last += n
	}
	return n
}

// QueueJoin records a join request for the next rekey interval. The
// member's credentials become available after the next Rekey call. A
// join that would take the group, counted with every queued join and
// leave, past MaxMembers fails with ErrGroupFull.
func (s *Server) QueueJoin(m MemberID) error {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if _, ok := s.tree.UserID(m); ok {
		return fmt.Errorf("rekey: member %d already present", m)
	}
	if s.queued[m] {
		return fmt.Errorf("rekey: member %d already queued", m)
	}
	if limit := MaxMembers(s.cfg.Degree); s.tree.N()+len(s.joins)-len(s.leaves) >= limit {
		return fmt.Errorf("%w: %d members at degree %d", ErrGroupFull, limit, s.cfg.Degree)
	}
	s.queued[m] = true
	s.joins = append(s.joins, m)
	s.obs.Set(obs.GPendingJoins, float64(len(s.joins)))
	return nil
}

// QueueLeave records a leave request for the next rekey interval.
func (s *Server) QueueLeave(m MemberID) error {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if _, ok := s.tree.UserID(m); !ok {
		return fmt.Errorf("rekey: member %d not present", m)
	}
	if s.queued[m] {
		return fmt.Errorf("rekey: member %d already queued", m)
	}
	s.queued[m] = true
	s.leaves = append(s.leaves, m)
	s.obs.Set(obs.GPendingLeaves, float64(len(s.leaves)))
	return nil
}

// Pending reports the queued joins and leaves.
func (s *Server) Pending() (joins, leaves int) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return len(s.joins), len(s.leaves)
}

// N returns the current group size.
func (s *Server) N() int {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.tree.N()
}

// GroupKey returns the current group key.
func (s *Server) GroupKey() keys.Key {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.tree.GroupKey()
}

// Credentials returns a current member's registration material.
func (s *Server) Credentials(m MemberID) (Credentials, bool) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	id, ok := s.tree.UserID(m)
	if !ok {
		return Credentials{}, false
	}
	key, ok := s.tree.IndividualKey(m)
	if !ok {
		return Credentials{}, false
	}
	return Credentials{
		Member: m, NodeID: id, Key: key,
		Degree: s.cfg.Degree, BlockSize: s.cfg.K,
	}, true
}

// PathKeys returns the keys member m should hold after a completed
// rekey: its individual key plus the key of every k-node on its path to
// the root, keyed by node ID. Consistency oracles and end-to-end tests
// compare recovered member state against it.
func (s *Server) PathKeys(m MemberID) (map[int]keys.Key, bool) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.tree.PathKeys(m)
}

// Snapshot returns the server's key tree as deterministic snapshot
// bytes, which keytree.Restore reads back into a Tree. It holds the
// tree only -- not the message sequence number nor the queued joins and
// leaves -- and nothing builds a Server from it: it is no failover
// checkpoint. vsim.Group restores it to read the group's tree.
func (s *Server) Snapshot() []byte {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.tree.Snapshot()
}

// ErrNoChange is returned by Rekey when no membership changes are
// pending: no rekey message is needed.
var ErrNoChange = errors.New("rekey: no pending membership changes")

// processPending applies the queued batch to the key tree in one
// critical section: every request queued before it is in the result
// (and in its Joined/Left counts), every later one waits for the next
// interval. It returns nil when nothing is queued; a failed batch
// leaves the queues intact.
func (s *Server) processPending() (*keytree.BatchResult, error) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if len(s.joins)+len(s.leaves) == 0 {
		return nil, nil
	}
	var start time.Time
	if s.obs.Enabled() {
		start = time.Now()
	}
	res, err := s.tree.ProcessBatch(s.joins, s.leaves)
	if err != nil {
		return nil, fmt.Errorf("rekey: %w", err)
	}
	// The queues keep their capacity: ProcessBatch copies what it keeps
	// of them (a sorted copy of the joins, the departed positions).
	s.joins, s.leaves = s.joins[:0], s.leaves[:0]
	clear(s.queued)
	if s.obs.Enabled() {
		s.obs.ObserveSince(obs.HShardBatch, start)
		s.obs.Set(obs.GPendingJoins, 0)
		s.obs.Set(obs.GPendingLeaves, 0)
	}
	return res, nil
}

// Rekey processes the queued batch (the end of a rekey interval): it
// updates the key tree via the marking algorithm, runs key assignment,
// and returns the rekey message to transport.
func (s *Server) Rekey() (*RekeyMessage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buildStart time.Time
	if s.obs.Enabled() {
		buildStart = time.Now()
	}
	res, err := s.processPending()
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, ErrNoChange
	}

	rm := &RekeyMessage{
		MsgID:  s.msgSeq & packet.MaxMsgID,
		Result: res,
		k:      s.cfg.K,
		obs:    s.obs,
	}
	// The USR subtree is built beside the ENC packets and buildAuth
	// joins it. An error surfaces where the serial order would report it.
	var usrTree func() (*keys.MerkleTree, error)
	if s.cfg.Signer != nil {
		usrTree = rm.startUSRSubtree()
		defer usrTree() // every return waits: nothing touches rm after Rekey
	}
	var assignStart time.Time
	if s.obs.Enabled() {
		assignStart = time.Now()
	}
	plan, err := assign.Build(res)
	if err != nil {
		return nil, err
	}
	s.msgSeq++
	part, err := blockplan.NewPartition(len(plan.Packets), s.cfg.K)
	if err != nil {
		return nil, err
	}
	rm.Plan, rm.Part = plan, part
	// One slab holds every datagram: the packet, written straight from the
	// plan, and, on a signing server, room after it for buildAuth to
	// append the trailer in place.
	stride := packet.PacketLen
	if s.cfg.Signer != nil {
		stride += packet.ENCTrailerBound(s.cfg.K, part.NumBlocks()+1, s.cfg.Signer.Public().Size())
	}
	slab := make([]byte, part.TotalSlots()*stride)
	rm.ENC = make([][]byte, part.TotalSlots())
	for i := range rm.ENC {
		rm.ENC[i] = slab[i*stride : i*stride+packet.PacketLen : (i+1)*stride]
	}
	if err := plan.WriteENC(rm.ENC, res, rm.MsgID, part); err != nil {
		return nil, err
	}
	if rm.coder, err = fec.NewCoder(s.cfg.K, fec.MaxShards-s.cfg.K); err != nil {
		return nil, err
	}
	rm.parity = make([][][]byte, part.NumBlocks())
	var blockTrees []keys.MerkleTree
	if s.cfg.Signer != nil {
		blockTrees = rm.blockTrees()
	}
	s.obs.ObserveSince(obs.HAssignBuild, assignStart)
	if s.cfg.Signer != nil {
		if err := rm.buildAuth(s.cfg.Signer, blockTrees, usrTree); err != nil {
			return nil, err
		}
	}
	if s.obs.Enabled() {
		s.obs.Inc(obs.CRekeys)
		s.obs.Add(obs.CJoins, int64(res.Joined))
		s.obs.Add(obs.CLeaves, int64(res.Left))
		s.obs.Observe(obs.HBatchSize, float64(res.Joined+res.Left))
		s.obs.ObserveSince(obs.HRekeyBuild, buildStart)
		s.obs.Set(obs.GGroupSize, float64(len(res.UserIDs)))
		s.obs.Emit(obs.Event{Kind: obs.EvRekeyBuilt, MsgID: rm.MsgID, Value: float64(part.NumReal)})
	}
	return rm, nil
}

// RekeyMessage is one interval's rekey workload, ready for transport.
type RekeyMessage struct {
	MsgID  uint8
	Result *keytree.BatchResult
	Plan   *assign.Plan
	// ENC holds every ENC datagram's send bytes in send order: block b's
	// data slot s is ENC[b*k+s]; last-block padding duplicates included.
	// Each is the packet, marshalled once, and after it the auth trailer
	// when the server signs. The FEC payloads are slices of them. The
	// bytes are shared and must not be modified.
	ENC  [][]byte
	Part blockplan.Partition

	k   int
	obs *obs.Registry
	// auth is the interval's authentication state (Merkle trees, root
	// signature, pre-built PARITY trailers); nil on an unsigned server.
	// Both are built once in Rekey and read-only afterwards.
	auth *intervalAuth

	// coder encodes the message's parity; it is safe for concurrent use.
	coder *fec.Coder

	mu     sync.Mutex
	parity [][][]byte // guarded by mu; per block: the parity payloads encoded so far
}

// Blocks returns the number of FEC blocks.
func (rm *RekeyMessage) Blocks() int { return rm.Part.NumBlocks() }

// PrecomputeParity extends block b's parity prefix to counts[b]
// payloads, for every b counts covers, so that AppendWireParity calls
// in that range are lookups. It encodes as BuildRound does (one
// protocol.EncodeBlocks fan-out) and workers is unused. counts may be
// shorter than the block count; missing entries mean zero. Cancelling
// ctx abandons the remaining encodes and returns ctx.Err().
func (rm *RekeyMessage) PrecomputeParity(ctx context.Context, counts []int, workers int) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.encodeLocked(ctx, counts)
}

// encodeLocked extends block b's parity prefix to want[b] payloads, for
// every b want covers, through one protocol.EncodeBlocks fan-out; a
// block that already holds as many costs nothing. Parity covers the
// packet span of each ENC datagram, not the three header bytes before
// it or the trailer after. Callers hold rm.mu.
func (rm *RekeyMessage) encodeLocked(ctx context.Context, want []int) error {
	if len(want) > rm.Blocks() {
		return fmt.Errorf("rekey: parity counts for %d blocks, message has %d", len(want), rm.Blocks())
	}
	var reqs []protocol.BlockParity
	for b, n := range want {
		have := len(rm.parity[b])
		if n <= have {
			continue
		}
		if n > rm.coder.MaxParity() {
			return fmt.Errorf("rekey: block %d wants %d parity packets, max %d", b, n, rm.coder.MaxParity())
		}
		data := make([][]byte, rm.k)
		for s := range data {
			data[s] = rm.ENC[b*rm.k+s][packet.FECOffset:packet.PacketLen]
		}
		reqs = append(reqs, protocol.BlockParity{Data: data, First: have, N: n - have})
	}
	if len(reqs) == 0 {
		return nil
	}
	var start time.Time
	if rm.obs.Enabled() {
		start = time.Now()
	}
	outs, err := protocol.EncodeBlocks(ctx, rm.coder, reqs, 0)
	if err != nil {
		return err
	}
	i := 0
	for b, n := range want {
		if n > len(rm.parity[b]) {
			rm.parity[b] = append(rm.parity[b], outs[i]...)
			i++
		}
	}
	if rm.obs.Enabled() {
		rm.obs.ObserveSince(obs.HParityEncode, start)
		for _, rq := range reqs {
			rm.obs.Observe(obs.HParityPerBlock, float64(rq.N))
		}
	}
	return nil
}

// PacketFor returns the index in ENC of the datagram serving the given
// user node ID, the one a member of that node needs.
func (rm *RekeyMessage) PacketFor(nodeID int) (int, bool) {
	pi, ok := rm.Plan.UserPacket[nodeID]
	return pi, ok
}

// checkUSRFields reports whether nodeID and the batch's MaxKID fit the
// USR packet's 16-bit fields.
func (rm *RekeyMessage) checkUSRFields(nodeID int) error {
	if nodeID > 0xffff || rm.Result.MaxKID > 0xffff {
		return fmt.Errorf("rekey: node ID %d exceeds wire field", nodeID)
	}
	return nil
}

// USRFor builds the unicast USR packet for the given user node ID: just
// that user's encryptions plus its (possibly new) ID.
func (rm *RekeyMessage) USRFor(nodeID int) (*packet.USR, error) {
	if err := rm.checkUSRFields(nodeID); err != nil {
		return nil, err
	}
	return &packet.USR{
		MsgID:  rm.MsgID,
		NewID:  uint16(nodeID),
		MaxKID: uint16(rm.Result.MaxKID),
		Encs:   rm.Result.UserNeeds(nodeID),
	}, nil
}

// appendUSR appends the bytes of USRFor(nodeID).Marshal() to dst, given
// the user's needs as a keytree.NeedsWalker returned them; callers have
// checked the fields with checkUSRFields.
func (rm *RekeyMessage) appendUSR(dst []byte, nodeID int, needs []int32) ([]byte, error) {
	dst, err := packet.AppendUSRHeader(dst, rm.MsgID, uint16(nodeID), uint16(rm.Result.MaxKID))
	if err != nil {
		return nil, err
	}
	for _, i := range needs {
		dst = packet.AppendEncEntry(dst, &rm.Result.Encryptions[i])
	}
	return dst, nil
}

// NumRealPackets returns h, the number of real (non-duplicate) ENC
// packets in the message.
func (rm *RekeyMessage) NumRealPackets() int { return rm.Part.NumReal }
