// Package udptrans runs the rekey transport protocol over real UDP
// sockets: the key server multicasts ENC and PARITY packets (emulated
// as a unicast fan-out, which keeps the code portable to hosts without
// multicast routing), collects NACKs for a round, retransmits fresh
// parity, and finally unicasts USR packets with escalating duplication
// -- the same state machine internal/protocol simulates, driving real
// bytes through real sockets.
package udptrans

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/protocol"
)

// Server distributes rekey messages to registered member addresses.
type Server struct {
	ks   *rekey.Server
	conn *net.UDPConn
	obs  *obs.Registry // shared with ks; nil when unobserved
	// bufs pools the datagram build buffers of the multicast hot path;
	// sized for the largest possible datagram (packet + auth trailer).
	bufs *protocol.BufPool

	mu    sync.Mutex
	addrs map[rekey.MemberID]*net.UDPAddr // guarded by mu
}

// NewServer binds a UDP socket (addr like "127.0.0.1:0") for the key
// server's transport. The transport reports into the key server's
// obs registry (rekey.Config.Obs), so one registry observes the whole
// server-side pipeline.
func NewServer(ks *rekey.Server, addr string) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udptrans: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udptrans: %w", err)
	}
	return &Server{
		ks:    ks,
		conn:  conn,
		obs:   ks.Obs(),
		bufs:  protocol.NewBufPool(packet.PacketLen+packet.MaxAuthTrailer, ks.Obs()),
		addrs: make(map[rekey.MemberID]*net.UDPAddr),
	}, nil
}

// Addr returns the server's bound address (for clients' NACKs).
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Close releases the socket.
func (s *Server) Close() error { return s.conn.Close() }

// SetMemberAddr registers (or updates) the delivery address of a member.
func (s *Server) SetMemberAddr(id rekey.MemberID, addr *net.UDPAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addrs[id] = addr
}

// RemoveMemberAddr unregisters a departed member.
func (s *Server) RemoveMemberAddr(id rekey.MemberID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.addrs, id)
}

// addrPorts snapshots the registered member addresses as netip values,
// the form WriteToUDPAddrPort sends to without per-call sockaddr
// allocations. Built once per multicast round, amortised over every
// packet of the round.
func (s *Server) addrPorts() []netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]netip.AddrPort, 0, len(s.addrs))
	for _, a := range s.addrs {
		out = append(out, addrPort(a))
	}
	return out
}

// addrPort converts a registered *net.UDPAddr to netip form. Resolved
// IPv4 addresses often arrive in net.IP's 16-byte mapped encoding;
// Unmap keeps them sendable through an IPv4-bound socket (a v4-in-6
// netip address fails the address-family check in WriteToUDPAddrPort).
func addrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Options tune one Distribute run's wire behaviour: timing and the
// unicast budget. The protocol knobs -- rho0, the multicast round
// budget, the encode worker bound -- are NOT here: Distribute reads
// them from the key server's shared tuning (rekey.Config.Tuning), so
// every knob stays defined in exactly one options type.
type Options struct {
	// RoundDur is how long the server listens for NACKs after each
	// multicast round (covers the maximum member RTT).
	RoundDur time.Duration
	// MaxUnicastWaves bounds the unicast retransmission phase.
	MaxUnicastWaves int
	// SendInterval paces multicast sends; zero sends back to back.
	SendInterval time.Duration
}

// DefaultOptions returns timing suitable for LAN/loopback operation.
func DefaultOptions() Options {
	return Options{
		RoundDur:        150 * time.Millisecond,
		MaxUnicastWaves: 8,
	}
}

// Validate checks the wire options, naming the offending field.
func (o Options) Validate() error {
	if o.RoundDur < 0 {
		return fmt.Errorf("udptrans: RoundDur = %v, want >= 0", o.RoundDur)
	}
	if o.MaxUnicastWaves < 0 {
		return fmt.Errorf("udptrans: MaxUnicastWaves = %d, want >= 0", o.MaxUnicastWaves)
	}
	if o.SendInterval < 0 {
		return fmt.Errorf("udptrans: SendInterval = %v, want >= 0", o.SendInterval)
	}
	return nil
}

// Stats reports one distribution run.
type Stats struct {
	EncSent       int
	ParitySent    int
	UsrSent       int
	Rounds        int
	UnicastWaves  int
	NACKsPerRound []int
}

// Distribute runs the full transport protocol for one rekey message.
// It returns once the NACK stream has gone quiet (all members done or
// the unicast wave budget is exhausted). The protocol knobs (rho0,
// multicast round budget, encode workers) come from the key server's
// tuning; opts carries only wire timing. Cancelling ctx aborts the
// NACK-collection waits and returns ctx's error.
func (s *Server) Distribute(ctx context.Context, rm *rekey.RekeyMessage, opts Options) (*Stats, error) {
	if len(rm.ENC) == 0 {
		return &Stats{}, nil
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	def := DefaultOptions()
	if opts.RoundDur == 0 {
		opts.RoundDur = def.RoundDur
	}
	if opts.MaxUnicastWaves == 0 {
		opts.MaxUnicastWaves = def.MaxUnicastWaves
	}
	tun := s.ks.Tuning()
	maxRounds := tun.MaxMulticastRounds
	if maxRounds <= 0 {
		maxRounds = rekey.DefaultTuning().MaxMulticastRounds
	}
	s.obs.Set(obs.GRho, tun.InitialRho)

	// A cancelled context unblocks the read wait in collectNACKs by
	// expiring the socket's read deadline immediately.
	stopWatch := context.AfterFunc(ctx, func() {
		s.conn.SetReadDeadline(time.Now()) //nolint:errcheck
	})
	defer stopWatch()

	st := &Stats{}
	k := rm.Part.K
	blocks := rm.Part.NumBlocks()
	nextParity := make([]int, blocks)
	// amax is the previous round's per-block parity demand.
	var amax []int

	// pendingUsers holds the node IDs that NACKed the latest round or
	// wave: the members still missing keys. One that NACKed an earlier
	// round only has been keyed since -- a pending member NACKs every
	// QuietGap, so it is in this set or in the next wave's.
	var pendingUsers map[int]bool

	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var roundStart time.Time
		if s.obs.Enabled() {
			roundStart = time.Now()
		}
		var refs []blockplan.Ref
		if round == 1 {
			refs = blockplan.RoundOne(rm.Part, tun.InitialRho)
			for b := range nextParity {
				nextParity[b] = blockplan.ProactiveParity(k, tun.InitialRho)
			}
		} else {
			perBlock := make([][]int, blocks)
			for b := 0; b < blocks; b++ {
				// The coder has MaxShards-k parity indices per block;
				// a long multicast budget may run a block out of them.
				n := min(amax[b], fec.MaxShards-k-nextParity[b])
				for j := 0; j < n; j++ {
					perBlock[b] = append(perBlock[b], k+nextParity[b])
					nextParity[b]++
				}
			}
			refs = blockplan.Interleave(perBlock)
		}
		s.obs.Emit(obs.Event{Kind: obs.EvRoundStart, MsgID: rm.MsgID, Round: round, Value: float64(len(refs))})
		// After either branch, nextParity[b] is the total parity prefix
		// this round's refs reach into; generate it across all blocks in
		// parallel so multicastRefs hits the cache.
		if err := rm.PrecomputeParity(ctx, nextParity, tun.Workers); err != nil {
			return st, err
		}
		if err := s.multicastRefs(ctx, rm, refs, opts.SendInterval, st); err != nil {
			return st, err
		}
		st.Rounds = round

		nacks, want, users, err := s.collectNACKs(ctx, rm, blocks, k, opts.RoundDur)
		if s.obs.Enabled() {
			s.obs.ObserveSince(obs.HRoundLatency, roundStart)
			s.obs.Observe(obs.HNACKsPerRound, float64(nacks))
		}
		if err != nil {
			return st, err
		}
		st.NACKsPerRound = append(st.NACKsPerRound, nacks)
		if nacks == 0 {
			return st, nil
		}
		amax, pendingUsers = want, users
		if round >= maxRounds {
			break
		}
	}

	// Unicast phase: escalating duplicates per Fig. 22.
	s.obs.Emit(obs.Event{Kind: obs.EvSwitchToUnicast, MsgID: rm.MsgID,
		Round: st.Rounds, Value: float64(len(pendingUsers))})
	byNode := s.nodeAddrs()
	dups := 2
	for wave := 1; wave <= opts.MaxUnicastWaves && len(pendingUsers) > 0; wave++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.UnicastWaves = wave
		s.obs.Inc(obs.CUnicastWaves)
		if err := s.unicastUSR(rm, pendingUsers, byNode, dups, st); err != nil {
			return st, err
		}
		dups++
		nacks, _, users, err := s.collectNACKs(ctx, rm, blocks, k, opts.RoundDur)
		if s.obs.Enabled() {
			s.obs.Observe(obs.HNACKsPerRound, float64(nacks))
		}
		if err != nil {
			return st, err
		}
		st.NACKsPerRound = append(st.NACKsPerRound, nacks)
		pendingUsers = users
		if nacks == 0 {
			return st, nil
		}
	}
	if len(pendingUsers) > 0 {
		return st, fmt.Errorf("udptrans: %d users still pending after unicast budget", len(pendingUsers))
	}
	return st, nil
}

func (s *Server) multicastRefs(ctx context.Context, rm *rekey.RekeyMessage, refs []blockplan.Ref, pace time.Duration, st *Stats) error {
	addrs := s.addrPorts()
	k := rm.Part.K
	// One pooled buffer serves every parity datagram of the round; ENC
	// datagrams are sent straight from the message's cached wire bytes.
	buf := s.bufs.Get()
	defer buf.Release()
	for _, r := range refs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := s.sendRef(rm, r, k, buf, addrs, st); err != nil {
			return err
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	return nil
}

// sendRef builds one ref's datagram and fans it out to every member
// address. This is the transport's per-packet inner loop: ENC packets
// reuse the interval's cached wire bytes outright, PARITY packets are
// rebuilt into the pooled buffer from the cached FEC payload, and the
// socket writes go through the AddrPort API -- zero allocations per
// packet once the interval's caches are warm.
func (s *Server) sendRef(rm *rekey.RekeyMessage, r blockplan.Ref, k int, buf *protocol.SendBuf, addrs []netip.AddrPort, st *Stats) error {
	var wire []byte
	if r.IsParity(k) {
		w, err := rm.AppendWireParity(buf.Take(), r.Block, r.Shard-k)
		if err != nil {
			return err
		}
		buf.Store(w)
		wire = w
		st.ParitySent++
		s.obs.Inc(obs.CParitySent)
	} else {
		w, err := rm.WireENC(r.Block*k + r.Shard)
		if err != nil {
			return err
		}
		wire = w
		st.EncSent++
		s.obs.Inc(obs.CEncSent)
	}
	// The fan-out borrows the buffer; with synchronous writes the
	// retain/release pair brackets the sends, and an async sender would
	// hold its reference until the kernel is done with the bytes.
	buf.Retain()
	defer buf.Release()
	for _, a := range addrs {
		if _, err := s.conn.WriteToUDPAddrPort(wire, a); err != nil {
			return sendErr("multicast", err)
		}
	}
	return nil
}

func sendErr(op string, err error) error {
	return fmt.Errorf("udptrans: %s: %w", op, err)
}

// collectNACKs listens for one round duration and aggregates feedback.
// NACKs are unauthenticated, so each request counts for at most k: a
// member can be short no more than k shards of a block.
func (s *Server) collectNACKs(ctx context.Context, rm *rekey.RekeyMessage, blocks, k int, dur time.Duration) (nacks int, amax []int, users map[int]bool, err error) {
	amax = make([]int, blocks)
	users = make(map[int]bool)
	deadline := time.Now().Add(dur)
	buf := make([]byte, 2048)
	seen := make(map[uint16]bool)
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, nil, err
		}
		if err := s.conn.SetReadDeadline(deadline); err != nil {
			return 0, nil, nil, err
		}
		n, _, rerr := s.conn.ReadFromUDPAddrPort(buf)
		if rerr != nil {
			var ne net.Error
			if errors.As(rerr, &ne) && ne.Timeout() {
				if err := ctx.Err(); err != nil {
					return 0, nil, nil, err
				}
				return nacks, amax, users, nil
			}
			return 0, nil, nil, rerr
		}
		// Checked before anything is built from it: a datagram that is no
		// NACK for this message costs the server no allocation. ParseNACK
		// keeps nothing of its input, so buf is parsed where it lies.
		if n == 0 || buf[0] != byte(packet.TypeNACK)<<6|rm.MsgID {
			s.obs.Inc(obs.CNACKIgnored)
			continue
		}
		nk, perr := packet.ParseNACK(buf[:n])
		if perr != nil {
			s.obs.Inc(obs.CNACKIgnored)
			continue
		}
		if seen[nk.UserID] {
			s.obs.Inc(obs.CNACKIgnored)
			continue // one NACK per user per round
		}
		seen[nk.UserID] = true
		nacks++
		users[int(nk.UserID)] = true
		maxReq := 0
		for _, r := range nk.Requests {
			c := min(int(r.Count), k)
			if int(r.BlockID) < blocks && c > amax[r.BlockID] {
				amax[r.BlockID] = c
			}
			if c > maxReq {
				maxReq = c
			}
		}
		if s.obs.Enabled() {
			s.obs.Inc(obs.CNACKRecv)
			s.obs.Emit(obs.Event{Kind: obs.EvNACKReceived, MsgID: rm.MsgID,
				User: int(nk.UserID), Value: float64(maxReq)})
		}
	}
}

func (s *Server) unicastUSR(rm *rekey.RekeyMessage, users map[int]bool, byNode map[int]netip.AddrPort, dups int, st *Stats) error {
	for nodeID := range users {
		// Resolved first: NACKs are unauthenticated, and a node ID that
		// is no member's has no USR leaf on a signed message -- WireUSR
		// would fail the interval for everyone.
		ap, ok := byNode[nodeID]
		if !ok {
			continue // member departed or unknown
		}
		// WireUSR carries the auth trailer on signed messages and is the
		// plain marshal otherwise; the unicast phase is the cold path, so
		// the datagram is built per user rather than cached.
		raw, err := rm.WireUSR(nodeID)
		if err != nil {
			return err
		}
		for j := 0; j < dups; j++ {
			if _, err := s.conn.WriteToUDPAddrPort(raw, ap); err != nil {
				return sendErr("unicast", err)
			}
			st.UsrSent++
			s.obs.Inc(obs.CUsrSent)
		}
	}
	return nil
}

// nodeAddrs maps each registered member's current key tree node ID to
// its address. Built once when the unicast phase starts: node IDs hold
// until the next Rekey, and every wave resolves its NACKers here.
func (s *Server) nodeAddrs() map[int]netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	byNode := make(map[int]netip.AddrPort, len(s.addrs))
	for id, a := range s.addrs {
		if cred, ok := s.ks.Credentials(id); ok {
			byNode[cred.NodeID] = addrPort(a)
		}
	}
	return byNode
}
