// Package udptrans runs the rekey transport protocol over real UDP
// sockets: the key server multicasts ENC and PARITY packets (emulated
// as a unicast fan-out, which keeps the code portable to hosts without
// multicast routing), collects NACKs for a round, retransmits fresh
// parity, and finally unicasts USR packets with escalating duplication.
// What to send and when to stop is protocol.Sender's to decide -- the
// same state machine the simulated vsim.Session drives -- and this
// package moves real bytes through real sockets: who is sent what first,
// the NACK window and its source check. The fan-out pays per burst, not
// per datagram: on Linux the server hands the kernel a run of datagrams
// for one member in one segmented send and the member reads it back in
// one coalesced receive (burst_linux.go); elsewhere, and where the
// kernel refuses, the same loops move one datagram a call.
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
	// burst sends b to one member as datagrams of seg bytes (the last
	// may be shorter) in a single call. It is nil where the platform has
	// no segmentation offload and once the kernel has refused a burst;
	// tests clear it to get the per-datagram reference path.
	burst func(b []byte, seg int, to netip.AddrPort) error

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
		burst: newBurst(conn),
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

// member is one row of a Distribute run's member table.
type member struct {
	node int // key tree node ID, the name NACKs and USR packets use; -1 without credentials
	own  int // index into rm.ENC of the member's own packet; -1 when the plan assigns none
	addr netip.AddrPort
}

// memberTable snapshots the registered members once per Distribute: node
// IDs and packet assignment hold until the next Rekey, so every round
// and the unicast phase read this one table. Addresses are netip
// values, which WriteToUDPAddrPort sends to without a sockaddr
// allocation per call. An address registered without credentials (a
// departed member) stays in the fan-out, as on a multicast group it has
// not left, under a node ID no NACK can name. addrOf is the table read
// the other way -- node ID to address -- for checking where a NACK came
// from.
func (s *Server) memberTable(rm *rekey.RekeyMessage) (members []member, addrOf map[int]netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	members = make([]member, 0, len(s.addrs))
	addrOf = make(map[int]netip.AddrPort, len(s.addrs))
	for id, a := range s.addrs {
		m := member{node: -1, own: -1, addr: addrPort(a)}
		if cred, ok := s.ks.Credentials(id); ok {
			m.node = cred.NodeID
			addrOf[m.node] = m.addr
			if pi, ok := rm.Plan.UserPacket[cred.NodeID]; ok {
				m.own = pi
			}
		}
		members = append(members, m)
	}
	return members, addrOf
}

// waitingFirst moves the members nackers names to the front of the
// table and returns how many there are.
func waitingFirst(members []member, nackers map[int]bool) int {
	n := 0
	for i, m := range members {
		if nackers[m.node] {
			members[i], members[n] = members[n], m
			n++
		}
	}
	return n
}

// addrPort converts a registered *net.UDPAddr to netip form. Resolved
// IPv4 addresses often arrive in net.IP's 16-byte mapped encoding;
// Unmap keeps them sendable through an IPv4-bound socket (a v4-in-6
// netip address fails the address-family check in WriteToUDPAddrPort).
func addrPort(a *net.UDPAddr) netip.AddrPort { return unmapped(a.AddrPort()) }

func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Options tune one Distribute run's wire behaviour: timing and the
// unicast budget. The protocol knobs -- rho0, the multicast round
// budget, the encode worker bound -- are NOT here: Distribute reads
// them from the key server's shared tuning (rekey.Config.Tuning), so
// every knob stays defined in exactly one options type.
type Options struct {
	// RoundDur is how long the server listens for NACKs after the last
	// datagram of a multicast round or unicast wave. The contract with
	// the members' timer is RoundDur >= Client.QuietGap + RTT: a member
	// still pending NACKs one QuietGap after its last datagram, which
	// must fall inside the window, because what reached the socket before
	// the window opened is discarded (drainStale). The defaults (150 ms
	// over 60 ms) satisfy it.
	RoundDur time.Duration
	// MaxUnicastWaves bounds the unicast retransmission phase.
	MaxUnicastWaves int
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

// Distribute runs the full transport protocol for one rekey message,
// sending what a protocol.Sender decides. It returns once the NACK
// stream has gone quiet (all members done or the unicast wave budget is
// exhausted). The protocol knobs (rho0,
// multicast round budget, encode workers) come from the key server's
// tuning; opts carries only wire timing. Cancelling ctx aborts the
// NACK-collection waits and returns ctx's error. Runs on one Server must
// not overlap: they would read each other's NACKs off the one socket.
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
	s.obs.Set(obs.GRho, tun.InitialRho)

	// A cancelled context unblocks the read wait in listen by expiring
	// the socket's read deadline immediately.
	stopWatch := context.AfterFunc(ctx, func() {
		s.conn.SetReadDeadline(time.Now()) //nolint:errcheck
	})
	defer stopWatch()

	st := &Stats{}
	snd := protocol.NewSender(rm.Part, tun.InitialRho, tun.MaxMulticastRounds, opts.MaxUnicastWaves)
	members, addrOf := s.memberTable(rm)
	// One pooled buffer holds each round's datagrams in turn, and one
	// scratch buffer every NACK read of the run.
	buf := s.bufs.Get()
	defer buf.Release()
	scratch := make([]byte, 2048)

	for step := protocol.Multicast; ; step = snd.Next() {
		switch step {
		case protocol.Done:
			return st, nil
		case protocol.GiveUp:
			return st, fmt.Errorf("udptrans: %d users still pending after unicast budget", len(snd.Waiting()))
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var roundStart time.Time
		if s.obs.Enabled() {
			roundStart = time.Now()
		}
		if step == protocol.Multicast {
			refs := snd.Refs()
			s.obs.Emit(obs.Event{Kind: obs.EvRoundStart, MsgID: rm.MsgID, Round: snd.Round(), Value: float64(len(refs))})
			// Generate the parity this round reaches into across all
			// blocks in parallel, so multicastRefs hits the cache.
			if err := rm.PrecomputeParity(ctx, snd.ParityPrefix(), tun.Workers); err != nil {
				return st, err
			}
			if err := s.multicastRefs(ctx, rm, refs, members, snd.Waiting(), buf, st); err != nil {
				return st, err
			}
			st.Rounds = snd.Round()
		} else {
			// Unicast (Fig. 22) to the latest round's or wave's NACKers
			// only: a member still pending NACKs every QuietGap.
			if snd.Wave() == 1 {
				s.obs.Emit(obs.Event{Kind: obs.EvSwitchToUnicast, MsgID: rm.MsgID,
					Round: st.Rounds, Value: float64(len(snd.Waiting()))})
			}
			st.UnicastWaves = snd.Wave()
			s.obs.Inc(obs.CUnicastWaves)
			if err := s.unicastUSR(rm, members[:waitingFirst(members, snd.Waiting())], snd.Dups(), st); err != nil {
				return st, err
			}
		}
		s.drainStale(scratch)
		err := s.listen(ctx, rm, addrOf, snd, scratch, opts.RoundDur)
		if s.obs.Enabled() {
			if step == protocol.Multicast {
				s.obs.ObserveSince(obs.HRoundLatency, roundStart)
			}
			s.obs.Observe(obs.HNACKsPerRound, float64(snd.NACKs()))
		}
		if err != nil {
			return st, err
		}
		st.NACKsPerRound = append(st.NACKsPerRound, snd.NACKs())
	}
}

// Burst caps, a call: half of what the kernel takes in a segmented send
// (64 segments, 65 507 bytes) and a fraction of a default receive
// buffer, so a member not reading when a chunk of a long round arrives
// still holds all of it.
const (
	maxBurst      = 32
	maxBurstBytes = 32 << 10
)

// multicastRefs puts one round on the wire under one rule: whoever is
// known to be waiting goes first. The fan-out emulates multicast by
// unicast, so a datagram reaches the last member a whole send loop
// after the first; the order of the (member, datagram) pairs is what
// the sender owns. In round one (nackers nil) every member waits for
// its own ENC packet, the one packet user-oriented assignment makes it
// need, so each gets that first; in later rounds the previous round's
// nackers wait for parity, so each gets the whole round back to back.
// Everything else then goes out in bursts, chunk-major: a chunk of the
// interleaved order to every member in turn, then the next chunk. Every
// member receives every datagram of the round exactly once, in the
// interleaved order but for its own packet.
func (s *Server) multicastRefs(ctx context.Context, rm *rekey.RekeyMessage, refs []blockplan.Ref, members []member, nackers map[int]bool, buf *protocol.SendBuf, st *Stats) error {
	k := rm.Part.K
	// The round is materialised once, contiguously and in send order, so
	// that any run of it is one buffer a burst can carry: ENC datagrams
	// copied from the message's cached wire bytes, PARITY built from the
	// cached FEC payloads, into buf, which grows to a round's size and
	// keeps it. One table a round: offs[i] is where datagram i starts in
	// the slab, at[e] where ENC packet e is in refs.
	tab := make([]int, len(refs)+1+rm.Part.TotalSlots())
	offs, at := tab[:len(refs)+1], tab[len(refs)+1:]
	slab := buf.Take()
	for i, r := range refs {
		if r.IsParity(k) {
			w, err := rm.AppendWireParity(slab, r.Block, r.Shard-k)
			if err != nil {
				return err
			}
			slab = w
			st.ParitySent++
			s.obs.Inc(obs.CParitySent)
		} else {
			enc := r.Block*k + r.Shard
			w, err := rm.WireENC(enc)
			if err != nil {
				return err
			}
			slab = append(slab, w...)
			at[enc] = i
			st.EncSent++
			s.obs.Inc(obs.CEncSent)
		}
		offs[i+1] = len(slab)
	}
	buf.Store(slab)

	// First pass: the waiting members, each sent all it waits for.
	rest := members
	if nackers == nil {
		for _, m := range members {
			if m.own >= 0 {
				if err := s.sendSpan(slab, offs, at[m.own], at[m.own]+1, -1, m.addr); err != nil {
					return err
				}
			}
		}
	} else {
		n := waitingFirst(members, nackers)
		for _, m := range members[:n] {
			if err := s.sendSpan(slab, offs, 0, len(refs), -1, m.addr); err != nil {
				return err
			}
		}
		rest = members[n:]
	}
	// Second pass, chunk-major: every pair the first did not send. This
	// is the transport's inner loop: the bytes are the round's and the
	// socket writes go through the AddrPort API -- no allocation per
	// datagram, burst or member.
	for lo, hi := 0, 0; lo < len(refs); lo = hi {
		hi = spanEnd(offs, lo, len(refs), false)
		for _, m := range rest {
			if err := ctx.Err(); err != nil {
				return err
			}
			own := -1 // where in the round the packet the first pass sent m is
			if nackers == nil && m.own >= 0 {
				own = at[m.own]
			}
			if err := s.sendSpan(slab, offs, lo, hi, own, m.addr); err != nil {
				return err
			}
			// Nobody is known to wait for this pass, and a thread that sends
			// without pause keeps its CPU from the threads its sends wake
			// (the kernel queues a wakee behind its waker): members hosted
			// with the server get their own packets a scheduler tick late.
			yield()
		}
	}
	return nil
}

// spanEnd returns the end of the longest span of datagrams that starts
// at lo, stops at or before hi and stays inside the burst caps. With
// oneCall the span is also one the kernel can segment: datagrams of one
// length, the last possibly shorter.
func spanEnd(offs []int, lo, hi int, oneCall bool) int {
	seg := offs[lo+1] - offs[lo]
	end := lo + 1
	for end < hi && end-lo < maxBurst && offs[end+1]-offs[lo] <= maxBurstBytes {
		n := offs[end+1] - offs[end]
		if oneCall && n > seg {
			break
		}
		end++
		if oneCall && n < seg {
			break
		}
	}
	return end
}

// sendSpan sends one member datagrams [lo, hi) of the round laid out in
// slab, but for datagram skip, which it has: every run the kernel can
// segment as one burst, a run of one -- every run, once bursts are off
// -- as a plain send. A burst the kernel refuses sent nothing: it goes
// out again datagram by datagram, and the server stops asking.
func (s *Server) sendSpan(slab []byte, offs []int, lo, hi, skip int, to netip.AddrPort) error {
	if lo <= skip && skip < hi {
		if err := s.sendSpan(slab, offs, lo, skip, -1, to); err != nil {
			return err
		}
		lo = skip + 1
	}
	for lo < hi {
		end := lo + 1
		if s.burst != nil {
			end = spanEnd(offs, lo, hi, true)
		}
		if end-lo == 1 {
			if err := s.send("multicast", slab[offs[lo]:offs[end]], to); err != nil {
				return err
			}
		} else if err := s.burst(slab[offs[lo]:offs[end]], offs[lo+1]-offs[lo], to); err != nil {
			if !burstRefused(err) {
				return fmt.Errorf("udptrans: multicast: %w", err)
			}
			s.burst = nil
			continue
		}
		s.obs.Inc(obs.CSendCalls)
		lo = end
	}
	return nil
}

func (s *Server) send(op string, wire []byte, to netip.AddrPort) error {
	if _, err := s.conn.WriteToUDPAddrPort(wire, to); err != nil {
		return fmt.Errorf("udptrans: %s: %w", op, err)
	}
	return nil
}

// staleDrain bounds drainStale: long enough to empty a socket buffer
// of NACKs, short against any RoundDur.
const staleDrain = 500 * time.Microsecond

// drainStale discards what queued on the socket while the server was
// sending. A NACK that arrived before the last datagram left is no
// feedback on what was just sent, and counting it would size the next
// round, and pick the unicast phase's users, from members this round
// may have keyed; one still pending NACKs again inside the window
// (Options.RoundDur). A read-deadline loop rather than non-blocking
// reads through SyscallConn: it is portable, with no per-OS recv call.
// The deadline is absolute, so a flooder cannot hold the server here:
// once it passes, every read fails whatever is queued.
func (s *Server) drainStale(buf []byte) {
	s.conn.SetReadDeadline(time.Now().Add(staleDrain)) //nolint:errcheck // a failed set fails the read below
	for {
		if _, _, err := s.conn.ReadFromUDPAddrPort(buf); err != nil {
			return
		}
		s.obs.Inc(obs.CNACKStale)
	}
}

// listen feeds snd the NACKs that arrive within one window of dur. NACKs
// are unauthenticated, so one counts only from the address registered
// for the node it names (addrOf): a host that merely sees the multicast
// buys nothing with a forged one. The Sender caps what a member's buys.
func (s *Server) listen(ctx context.Context, rm *rekey.RekeyMessage, addrOf map[int]netip.AddrPort, snd *protocol.Sender, buf []byte, dur time.Duration) error {
	deadline := time.Now().Add(dur)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.conn.SetReadDeadline(deadline); err != nil {
			return err
		}
		n, from, rerr := s.conn.ReadFromUDPAddrPort(buf)
		if rerr != nil {
			var ne net.Error
			if errors.As(rerr, &ne) && ne.Timeout() {
				return ctx.Err()
			}
			return rerr
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
		if to, ok := addrOf[int(nk.UserID)]; !ok || to != unmapped(from) {
			s.obs.Inc(obs.CNACKIgnored)
			continue
		}
		demand, ok := snd.NACK(int(nk.UserID), nk.Requests)
		if !ok {
			s.obs.Inc(obs.CNACKIgnored)
			continue
		}
		if s.obs.Enabled() {
			s.obs.Inc(obs.CNACKRecv)
			s.obs.Emit(obs.Event{Kind: obs.EvNACKReceived, MsgID: rm.MsgID,
				User: int(nk.UserID), Value: float64(demand)})
		}
	}
}

// unicastUSR sends each pending member its USR packet dups times. The
// members come from the table, so a NACK naming a node ID that is no
// member's -- NACKs are unauthenticated, and such an ID has no USR leaf
// on a signed message: WireUSR would fail the interval for everyone --
// is served nothing.
func (s *Server) unicastUSR(rm *rekey.RekeyMessage, pending []member, dups int, st *Stats) error {
	for _, m := range pending {
		// WireUSR carries the auth trailer on signed messages and is the
		// plain marshal otherwise; the unicast phase is the cold path, so
		// the datagram is built per user rather than cached.
		raw, err := rm.WireUSR(m.node)
		if err != nil {
			return err
		}
		for j := 0; j < dups; j++ {
			if err := s.send("unicast", raw, m.addr); err != nil {
				return err
			}
			st.UsrSent++
			s.obs.Inc(obs.CUsrSent)
		}
	}
	return nil
}
