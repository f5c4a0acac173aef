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
// The packet bookkeeping and loss-recovery policy (rounds, NACKs,
// adaptive proactivity) live in internal/protocol for simulation and in
// internal/udptrans for the wire; this package is the key-management
// core both share.
//
// Servers are built with functional options mirroring keytree.New:
// NewServer(WithTuning(t), WithKeySeed(seed), WithObs(reg)). The
// options populate a validated Config core embedding Tuning (the
// shared protocol knobs -- k, d, rho0, numNACK, round budget, workers
// -- defined once in internal/tuning and reused by every layer).
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
// of k, tree degree, rho0, the NACK targets and the worker bound. It
// is embedded here, in protocol.Config, and read by the UDP transport,
// so every layer agrees on one validated set of knobs.
type Tuning = tuning.Tuning

// DefaultTuning returns the paper's default knobs (DESIGN.md): k=10,
// d=4, rho0=1, numNACK=20 (cap 100), unicast after 2 multicast rounds.
func DefaultTuning() Tuning { return tuning.Default() }

// Config is the server's validated options core; NewServer's
// functional options populate it.
type Config struct {
	// Tuning holds the shared protocol knobs. Zero-valued fields take
	// the paper defaults (DefaultTuning); the server itself consumes K
	// and Degree, while the transports read the rest through
	// Server.Tuning so rho0, the NACK target and the worker bound are
	// configured in exactly one place.
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

func (c Config) withDefaults() Config {
	c.Tuning = c.Tuning.WithDefaults()
	return c
}

// Option configures a Server (see NewServer).
type Option func(*Config)

// WithTuning sets the shared protocol knobs; zero-valued fields take
// the paper defaults.
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
	msgSeq  uint8         // guarded by mu
	lastMsg *RekeyMessage // guarded by mu

	treeMu sync.Mutex
	// The key tree and the next interval's batch are guarded by treeMu.
	tree   *keytree.Tree     // guarded by treeMu
	joins  []MemberID        // guarded by treeMu
	leaves []MemberID        // guarded by treeMu
	queued map[MemberID]bool // guarded by treeMu
}

// NewServer creates a server with an empty group. With no options it
// uses the paper's default tuning, a CSPRNG key generator and no
// observability.
func NewServer(opts ...Option) (*Server, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Tuning.Validate(); err != nil {
		return nil, fmt.Errorf("rekey: %w", err)
	}
	gen := keys.NewGenerator()
	if cfg.KeySeed != 0 {
		gen = keys.NewDeterministicGenerator(cfg.KeySeed)
	}
	return &Server{
		cfg: cfg,
		obs: cfg.Obs,
		tree: keytree.New(cfg.Degree, gen,
			keytree.WithWorkers(cfg.Workers),
			keytree.WithObs(cfg.Obs)),
		queued: make(map[MemberID]bool),
	}, nil
}

// Tuning returns the server's effective (defaulted, validated) tuning.
// The transports read rho0, the round budget and the worker bound from
// here so the knobs stay defined in one place.
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
// bytes -- the failover checkpoint a standby restores from with
// keytree.Restore.
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
	s.joins, s.leaves = nil, nil
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
		degree: s.cfg.Degree,
		k:      s.cfg.K,
		obs:    s.obs,
	}
	// With more than one worker the USR subtree is built beside the ENC
	// packets and buildAuth joins it; with one, buildAuth builds it. An
	// error surfaces where the serial order would report it.
	var usrTree func() (*keys.MerkleTree, error)
	if s.cfg.Signer != nil {
		workers := s.cfg.EffectiveWorkers()
		usrTree = rm.startUSRSubtree(workers)
		if workers > 1 {
			defer usrTree() // every return waits: nothing touches rm after Rekey
		}
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
	encs, err := assign.Materialize(plan, res, rm.MsgID, s.cfg.K)
	if err != nil {
		return nil, err
	}
	part, err := blockplan.NewPartition(len(plan.Packets), s.cfg.K)
	if err != nil {
		return nil, err
	}
	rm.Plan, rm.ENC, rm.Part = plan, encs, part
	rm.encWire = make([][]byte, len(encs))
	// One slab holds every datagram: the packet and, on a signing server,
	// room after it for buildAuth to append the trailer in place.
	stride := packet.PacketLen
	if s.cfg.Signer != nil {
		stride += packet.ENCTrailerBound(s.cfg.K, part.NumBlocks()+1, s.cfg.Signer.Public().Size())
	}
	slab := make([]byte, len(encs)*stride)
	for i, enc := range encs {
		rm.encWire[i] = slab[i*stride : i*stride+packet.PacketLen : (i+1)*stride]
		if err := enc.MarshalInto(rm.encWire[i]); err != nil {
			return nil, err
		}
	}
	var blockTrees []*keys.MerkleTree
	if s.cfg.Signer != nil {
		blockTrees = rm.blockTrees()
	}
	s.obs.ObserveSince(obs.HAssignBuild, assignStart)
	if s.cfg.Signer != nil {
		if err := rm.buildAuth(s.cfg.Signer, blockTrees, usrTree); err != nil {
			return nil, err
		}
	}
	s.lastMsg = rm
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

// LastMessage returns the most recent rekey message, if any.
func (s *Server) LastMessage() *RekeyMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastMsg
}

// RekeyMessage is one interval's rekey workload, ready for transport.
type RekeyMessage struct {
	MsgID  uint8
	Result *keytree.BatchResult
	Plan   *assign.Plan
	// ENC holds the materialised packets in send order: block b's data
	// slot s is ENC[b*k+s]; last-block padding duplicates included.
	ENC  []*packet.ENC
	Part blockplan.Partition

	degree int
	k      int
	obs    *obs.Registry
	// encWire holds every ENC datagram's send bytes, parallel to ENC:
	// the packet, marshalled once, and after it the auth trailer when
	// the server signs. The FEC payloads are slices of it.
	encWire [][]byte
	// auth is the interval's authentication state (Merkle trees, root
	// signature, pre-built PARITY trailers); nil on an unsigned server.
	// Both are built once in Rekey and read-only afterwards.
	auth *intervalAuth

	mu     sync.Mutex
	coder  *fec.Coder // guarded by mu
	data   [][][]byte // guarded by mu; per block: k FEC payloads, built lazily
	parity [][][]byte // guarded by mu; per block: parity payloads generated so far
}

// Blocks returns the number of FEC blocks.
func (rm *RekeyMessage) Blocks() int { return rm.Part.NumBlocks() }

// ensureCoderLocked initialises the lazy FEC state; the Locked suffix
// records that callers hold rm.mu.
func (rm *RekeyMessage) ensureCoderLocked() error {
	if rm.coder != nil {
		return nil
	}
	c, err := fec.NewCoder(rm.k, fec.MaxShards-rm.k)
	if err != nil {
		return err
	}
	rm.coder = c
	rm.data = make([][][]byte, rm.Blocks())
	rm.parity = make([][][]byte, rm.Blocks())
	return nil
}

// blockDataLocked materialises (once) the FEC payloads of one block:
// parity covers the packet span of each datagram, not the three header
// bytes before it or the trailer after. Callers hold rm.mu.
func (rm *RekeyMessage) blockDataLocked(block int) [][]byte {
	if rm.data[block] == nil {
		payloads := make([][]byte, rm.k)
		for s := range payloads {
			payloads[s] = rm.encWire[block*rm.k+s][packet.FECOffset:packet.PacketLen]
		}
		rm.data[block] = payloads
	}
	return rm.data[block]
}

// parityPayload returns (generating and caching if needed) the raw FEC
// payload of parity packet idx of the given block. On a cache hit it
// does not allocate, which makes it the backing for the zero-copy send
// path (AppendWireParity).
func (rm *RekeyMessage) parityPayload(block, idx int) ([]byte, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if err := rm.ensureCoderLocked(); err != nil {
		return nil, err
	}
	if block < 0 || block >= rm.Blocks() {
		return nil, fmt.Errorf("rekey: block %d out of range", block)
	}
	if idx < 0 || idx >= rm.coder.MaxParity() {
		return nil, fmt.Errorf("fec: parity index %d out of range [0,%d)", idx, rm.coder.MaxParity())
	}
	if idx >= len(rm.parity[block]) {
		rm.obs.Inc(obs.CParityCacheMiss)
		have := len(rm.parity[block])
		fresh, err := rm.coder.EncodeAll(rm.blockDataLocked(block), have, idx+1-have)
		if err != nil {
			return nil, err
		}
		rm.parity[block] = append(rm.parity[block], fresh...)
	} else {
		rm.obs.Inc(obs.CParityCacheHit)
	}
	return rm.parity[block][idx], nil
}

// PrecomputeParity generates (and caches) parity payloads for many
// blocks at once: after it returns, block b has at least counts[b]
// parity packets cached, so subsequent AppendWireParity calls in that
// range are lookups. The per-block encodes fan out across a bounded
// worker pool (workers <= 0 means GOMAXPROCS); the cached bytes are
// identical to what serial AppendWireParity calls would produce. counts
// may be shorter than the block count; missing entries mean zero.
// Cancelling ctx abandons the remaining encodes and returns ctx.Err();
// already-cached parity stays cached.
func (rm *RekeyMessage) PrecomputeParity(ctx context.Context, counts []int, workers int) error {
	rm.mu.Lock()
	if err := rm.ensureCoderLocked(); err != nil {
		rm.mu.Unlock()
		return err
	}
	if len(counts) > rm.Blocks() {
		rm.mu.Unlock()
		return fmt.Errorf("rekey: parity counts for %d blocks, message has %d", len(counts), rm.Blocks())
	}
	var reqs []protocol.BlockParity
	var blockOf []int
	for b, want := range counts {
		have := len(rm.parity[b])
		if want <= have {
			continue
		}
		if want > rm.coder.MaxParity() {
			rm.mu.Unlock()
			return fmt.Errorf("rekey: block %d wants %d parity packets, max %d", b, want, rm.coder.MaxParity())
		}
		reqs = append(reqs, protocol.BlockParity{Data: rm.blockDataLocked(b), First: have, N: want - have})
		blockOf = append(blockOf, b)
	}
	rm.mu.Unlock()
	if len(reqs) == 0 {
		return nil
	}
	var encStart time.Time
	if rm.obs.Enabled() {
		encStart = time.Now()
	}

	// Encode outside the lock: the coder and the materialised block data
	// are read-only from here on.
	outs, err := protocol.EncodeBlocks(ctx, rm.coder, reqs, workers)
	if err != nil {
		return err
	}
	if rm.obs.Enabled() {
		rm.obs.ObserveSince(obs.HParityEncode, encStart)
		for _, rq := range reqs {
			rm.obs.Observe(obs.HParityPerBlock, float64(rq.N))
		}
	}

	rm.mu.Lock()
	defer rm.mu.Unlock()
	for i, b := range blockOf {
		// A concurrent caller may have extended this block's prefix in
		// the meantime; parity bytes are deterministic, so splice in only
		// the packets that are still missing.
		for j, p := range outs[i] {
			if reqs[i].First+j == len(rm.parity[b]) {
				rm.parity[b] = append(rm.parity[b], p)
			}
		}
	}
	return nil
}

// PacketFor returns the ENC packet serving the given user node ID.
func (rm *RekeyMessage) PacketFor(nodeID int) (*packet.ENC, bool) {
	pi, ok := rm.Plan.UserPacket[nodeID]
	if !ok {
		return nil, false
	}
	return rm.ENC[pi], true
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
