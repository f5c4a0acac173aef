// Package udptrans runs the rekey transport protocol over real UDP
// sockets: the key server multicasts ENC and PARITY packets (emulated
// as a unicast fan-out, which keeps the code portable to hosts without
// multicast routing), collects NACKs for a round, retransmits fresh
// parity, and finally unicasts USR packets with escalating duplication.
// What to send, how many copies, when to stop and what carries from one
// message to the next (rho, the NACK target) is protocol.Session's to
// decide and to account for -- the one state machine the simulated
// vsim.Session drives too -- and this package moves real bytes through
// real sockets: who is sent what first, the NACK window and its source
// check. A NACK's bytes go to the Session as they arrive.
// The fan-out pays per batch, not per datagram: on Linux one sendmmsg
// hands the kernel up to 64 members' runs of datagrams, each run
// segmented, and a member reads its run back in one coalesced receive
// (burst_linux.go); elsewhere, and where the kernel refuses, the same
// list goes out one datagram a call.
package udptrans

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Server distributes rekey messages to registered member addresses.
type Server struct {
	ks   *rekey.Server
	conn *net.UDPConn
	obs  *obs.Registry // shared with ks; nil when unobserved
	// sess carries rho and the NACK target from one Distribute to the
	// next, as the key server's tuning says.
	sess *protocol.Session
	// mmsg hands the kernel a send list in one call and returns how many
	// messages it took. It is nil where the platform has no batched,
	// segmented send and once the kernel has refused one; tests clear it
	// to get the per-datagram reference path.
	mmsg func(msgs []outMsg) (int, error)
	// round and out are the last round's datagrams and send list, whose
	// arrays the next reuses; runs never overlap.
	round rekey.Round
	out   []outMsg

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
		sess:  protocol.NewSession(ks.Tuning(), rand.Uint64(), ks.Obs()),
		mmsg:  newMmsg(conn),
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
			if pi, ok := rm.PacketFor(cred.NodeID); ok {
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
// unicast budget. Distribute uses them as given; DefaultOptions holds
// the defaults. The protocol knobs -- rho0 and its adaptation, the
// multicast round budget -- are NOT here: the server reads them from
// the key server's shared tuning (rekey.Config.Tuning), so every knob
// stays defined in exactly one options type.
type Options struct {
	// RoundDur is how long the server listens for NACKs after the last
	// datagram of a multicast round or unicast wave. The contract with
	// the members' timer is RoundDur >= Client.QuietGap + RTT: a member
	// still pending NACKs one QuietGap after its last datagram, which
	// must fall inside the window, because what reached the socket before
	// the window opened is discarded (drainStale). The defaults (150 ms
	// over 60 ms) satisfy it. > 0.
	RoundDur time.Duration
	// MaxUnicastWaves bounds the unicast retransmission phase. Zero
	// means no unicast wave: members the multicast rounds leave
	// pending end the run with an error. >= 0.
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
	if o.RoundDur <= 0 {
		return fmt.Errorf("udptrans: RoundDur = %v, want > 0", o.RoundDur)
	}
	if o.MaxUnicastWaves < 0 {
		return fmt.Errorf("udptrans: MaxUnicastWaves = %d, want >= 0", o.MaxUnicastWaves)
	}
	return nil
}

// Stats reports one distribution run: the account the protocol.Session
// kept of what it listed for the wire.
type Stats = protocol.Outcome

// Distribute runs the full transport protocol for one rekey message,
// sending what the server's protocol.Session decides. It returns once
// the NACK stream has gone quiet (all members done or the unicast wave
// budget is exhausted). The protocol knobs (rho and its adaptation,
// the multicast round budget) come from the key server's tuning; opts
// carries only wire timing and is used as given. Cancelling ctx aborts
// the NACK-collection waits and returns ctx's error. Runs on one Server
// must not overlap: they would read each other's NACKs off the one
// socket.
func (s *Server) Distribute(ctx context.Context, rm *rekey.RekeyMessage, opts Options) (*Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(rm.ENC) == 0 {
		return &Stats{}, nil
	}
	// A cancelled context unblocks the read wait in listen by expiring
	// the socket's read deadline immediately.
	stopWatch := context.AfterFunc(ctx, func() {
		s.conn.SetReadDeadline(time.Now()) //nolint:errcheck
	})
	defer stopWatch()

	s.sess.Open(rm.Part, rm.MsgID, opts.MaxUnicastWaves)
	st := s.sess.Outcome()
	members, addrOf := s.memberTable(rm)
	scratch := make([]byte, 2048) // every NACK read of the run

	for step := protocol.Multicast; ; step = s.sess.Next() {
		if step == protocol.Done || step == protocol.GiveUp {
			s.sess.Close()
			if step == protocol.GiveUp {
				return st, fmt.Errorf("udptrans: %d users still pending after unicast budget", len(s.sess.Waiting()))
			}
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var roundStart time.Time
		if s.obs.Enabled() {
			roundStart = time.Now()
		}
		if step == protocol.Multicast {
			if err := s.multicastRefs(ctx, rm, s.sess.Refs(), members, s.sess.Waiting()); err != nil {
				return st, err
			}
		} else {
			// Unicast (Fig. 22) to the latest round's or wave's NACKers
			// only: a member still pending NACKs every QuietGap.
			if err := s.unicastUSR(ctx, rm, members[:waitingFirst(members, s.sess.Waiting())]); err != nil {
				return st, err
			}
		}
		s.drainStale(scratch)
		err := s.listen(ctx, rm, addrOf, scratch, opts.RoundDur)
		if step == protocol.Multicast && s.obs.Enabled() {
			s.obs.ObserveSince(obs.HRoundLatency, roundStart)
		}
		if err != nil {
			return st, err
		}
	}
}

// Burst caps, a message: half of what the kernel takes in a segmented
// send (64 segments, 65 507 bytes) and a fraction of a default receive
// buffer, so a member not reading when a chunk of a long round arrives
// still holds all of it. A batch, one call, is up to batchSize messages.
const (
	maxBurst      = 32
	maxBurstBytes = 32 << 10
	batchSize     = 64
)

// outMsg is one entry of a send list: datagrams for one member in one or
// two pieces of a round's slab, which the kernel cuts into datagrams of
// seg bytes, the last possibly shorter.
type outMsg struct {
	to  netip.AddrPort
	iov [2][]byte
	seg int
}

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
func (s *Server) multicastRefs(ctx context.Context, rm *rekey.RekeyMessage, refs []blockplan.Ref, members []member, nackers map[int]bool) error {
	// The round is laid out once, contiguously and in send order, so
	// that any run of it is one buffer a message can carry.
	if err := rm.BuildRound(ctx, &s.round, refs); err != nil {
		return err
	}
	slab, offs, at := s.round.Bytes, s.round.Offs, s.round.At

	// First pass: the waiting members, each sent all it waits for.
	msgs := s.out[:0]
	rest := members
	if nackers == nil {
		for _, m := range members {
			if m.own >= 0 {
				msgs = appendSpan(msgs, slab, offs, at[m.own], at[m.own]+1, -1, m.addr)
			}
		}
	} else {
		n := waitingFirst(members, nackers)
		for _, m := range members[:n] {
			msgs = appendSpan(msgs, slab, offs, 0, len(refs), -1, m.addr)
		}
		rest = members[n:]
	}
	// Second pass, chunk-major: every pair the first did not send, a
	// member's chunk one message around its own packet. This is the
	// transport's inner loop: the messages point into the round's bytes,
	// and the list reuses the last one's array -- no allocation per
	// datagram, message or batch.
	for lo, hi := 0, 0; lo < len(refs); lo = hi {
		hi = spanEnd(offs, lo, len(refs), -1, false)
		for _, m := range rest {
			own := -1 // where in the round the packet the first pass sent m is
			if nackers == nil && m.own >= 0 {
				own = at[m.own]
			}
			msgs = appendSpan(msgs, slab, offs, lo, hi, own, m.addr)
		}
	}
	s.out = msgs
	return s.send(ctx, msgs)
}

// spanEnd returns the end of the longest span of datagrams that starts
// at lo, stops at or before hi and stays inside the burst caps. With
// oneCall the span but for datagram skip is also one the kernel can
// segment: datagrams of one length, the last possibly shorter.
func spanEnd(offs []int, lo, hi, skip int, oneCall bool) int {
	seg := offs[lo+1] - offs[lo]
	end := lo + 1
	for end < hi && end-lo < maxBurst && offs[end+1]-offs[lo] <= maxBurstBytes {
		n := offs[end+1] - offs[end]
		if oneCall && end != skip && n > seg {
			break
		}
		end++
		if oneCall && end-1 != skip && n < seg {
			break
		}
	}
	return end
}

// appendSpan appends the messages for datagrams [lo, hi) of the round in
// slab but skip, which the member has: one for every run the kernel can
// segment, in two pieces where the run spans skip.
func appendSpan(msgs []outMsg, slab []byte, offs []int, lo, hi, skip int, to netip.AddrPort) []outMsg {
	for lo < hi {
		if lo == skip {
			lo++
			continue
		}
		end := spanEnd(offs, lo, hi, skip, true)
		m := outMsg{to: to, iov: [2][]byte{slab[offs[lo]:offs[end]]}, seg: offs[lo+1] - offs[lo]}
		if lo < skip && skip < end {
			m.iov = [2][]byte{slab[offs[lo]:offs[skip]], slab[offs[skip+1]:offs[end]]}
		}
		msgs = append(msgs, m)
		lo = end
	}
	return msgs
}

// send puts a send list on the wire a batch a call, resuming a batch the
// kernel took in part at its first message left. A message it refuses
// sent nothing: from it on, for good, the server sends one datagram a
// call. It yields after each batch: a thread that sends without pause
// keeps its CPU from the threads its sends wake, which the kernel queues
// behind it, and members hosted with it would key a tick late.
func (s *Server) send(ctx context.Context, msgs []outMsg) error {
	for len(msgs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := msgs[:min(len(msgs), batchSize)]
		if s.mmsg != nil {
			n, err := s.mmsg(batch)
			if err == nil {
				s.obs.Inc(obs.CSendCalls)
				batch = batch[:n]
			} else if batchRefused(err) {
				s.mmsg = nil
			} else {
				return fmt.Errorf("udptrans: send: %w", err)
			}
		}
		for i := 0; s.mmsg == nil && i < len(batch); i++ {
			m := batch[i]
			for _, p := range m.iov {
				for ; len(p) > 0; p = p[min(m.seg, len(p)):] {
					if _, err := s.conn.WriteToUDPAddrPort(p[:min(m.seg, len(p))], m.to); err != nil {
						return fmt.Errorf("udptrans: send: %w", err)
					}
					s.obs.Inc(obs.CSendCalls)
				}
			}
		}
		msgs = msgs[len(batch):]
		yield()
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

// listen feeds the Session the NACKs that arrive within one window of
// dur. NACKs are unauthenticated, so one counts only from the address
// registered for the node it names (addrOf): a host that merely sees the
// multicast buys nothing with a forged one. The Session caps what a
// member's buys.
func (s *Server) listen(ctx context.Context, rm *rekey.RekeyMessage, addrOf map[int]netip.AddrPort, buf []byte, dur time.Duration) error {
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
		// A NACK names its node in bytes 1-2; the Session reads the rest
		// where it lies, so no datagram costs the server an allocation.
		node, demand, ok := -1, 0, false
		if n >= 3 {
			node = int(binary.BigEndian.Uint16(buf[1:]))
		}
		if to, reg := addrOf[node]; reg && to == unmapped(from) {
			demand, ok = s.sess.NACK(node, buf[:n])
		}
		if !ok {
			s.obs.Inc(obs.CNACKIgnored)
			continue
		}
		if s.obs.Enabled() {
			s.obs.Emit(obs.Event{Kind: obs.EvNACKReceived, MsgID: rm.MsgID, User: node, Value: float64(demand)})
		}
	}
}

// unicastUSR sends each pending member as many copies of its USR packet
// as the Session says. The members come from the table, so a NACK naming a node
// ID that is no member's -- NACKs are unauthenticated, and such an ID
// has no USR leaf on a signed message: WireUSR would fail the interval
// for everyone -- is served nothing.
func (s *Server) unicastUSR(ctx context.Context, rm *rekey.RekeyMessage, pending []member) error {
	msgs := s.out[:0]
	for _, m := range pending {
		// WireUSR carries the auth trailer on signed messages and is the
		// plain marshal otherwise; the unicast phase is the cold path, so
		// the datagram is built per user rather than cached.
		raw, err := rm.WireUSR(m.node)
		if err != nil {
			return err
		}
		for j := 0; j < s.sess.Copies(m.node); j++ {
			msgs = append(msgs, outMsg{to: m.addr, iov: [2][]byte{raw}, seg: len(raw)})
		}
	}
	s.out = msgs
	return s.send(ctx, msgs)
}
