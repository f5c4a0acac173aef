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
	"repro/internal/obs"
	"repro/internal/packet"
)

// Client is a group member's transport endpoint: it receives multicast
// and unicast packets on its own UDP socket, feeds them to the member
// state machine, and sends a NACK to the key server whenever the packet
// stream pauses while the member is still missing keys.
type Client struct {
	Member *rekey.Member

	conn   *net.UDPConn
	rd     *reader        // the platform's receive half
	server netip.AddrPort // resolved once: a NACK allocates no sockaddr

	// Drop, when non-nil, is a test-only fault injector: packets for
	// which it returns true are discarded before ingestion, emulating a
	// lossy receiver link.
	Drop func(pkt []byte) bool

	// Mangle, when non-nil, is a test-only impairment hook applied after
	// Drop: each received packet is replaced by the slice of packets it
	// returns (empty = lost, several = duplicated and/or reordered
	// arrivals released together). See netsim.Mangler.
	Mangle func(pkt []byte) [][]byte

	// QuietGap is how long the packet stream must pause before the
	// client concludes a round ended and emits a NACK, and again every
	// QuietGap while it is still pending. The server's window must
	// cover it: Options.RoundDur >= QuietGap + RTT.
	QuietGap time.Duration

	// Obs, when non-nil, receives the client's packet counters and
	// MemberDone trace events. Set before Run.
	Obs *obs.Registry

	mu     sync.Mutex
	closed bool // guarded by mu
	done   chan struct{}
}

// NewClient binds a member socket on an ephemeral loopback port and
// targets NACKs at serverAddr.
func NewClient(cred rekey.Credentials, serverAddr *net.UDPAddr) (*Client, error) {
	return NewClientAt(cred, serverAddr, "127.0.0.1:0")
}

// NewClientAt is NewClient with an explicit local listen address, for
// members that registered an address before constructing the client.
func NewClientAt(cred rekey.Credentials, serverAddr *net.UDPAddr, local string) (*Client, error) {
	la, err := net.ResolveUDPAddr("udp", local)
	if err != nil {
		return nil, fmt.Errorf("udptrans: client listen addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("udptrans: client listen: %w", err)
	}
	return NewClientOnConn(cred, serverAddr, conn)
}

// NewClientOnConn builds a client over an already-bound socket. Members
// bind before registering so that packets distributed while
// registration completes queue in the socket buffer instead of being
// lost; Run drains them. Where the kernel can coalesce the datagrams of
// a burst into one read (Linux, UDP_GRO) the socket is set to.
func NewClientOnConn(cred rekey.Credentials, serverAddr *net.UDPAddr, conn *net.UDPConn) (*Client, error) {
	m, err := rekey.NewMember(cred)
	if err != nil {
		conn.Close()
		return nil, err
	}
	rd, err := newReader(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("udptrans: client socket: %w", err)
	}
	return &Client{
		Member:   m,
		conn:     conn,
		rd:       rd,
		server:   addrPort(serverAddr),
		QuietGap: 60 * time.Millisecond,
		done:     make(chan struct{}),
	}, nil
}

// Addr returns the client's bound address, to register with the server.
func (c *Client) Addr() *net.UDPAddr { return c.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the receive loop and releases the socket.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// Run receives packets until ctx is cancelled or Close is called. It
// is typically run in its own goroutine. Transient ingest errors
// (stale duplicates, packets for other members) are counted in the
// registry, not fatal. Run returns nil after Close and ctx.Err() after
// cancellation.
//
// A read is one datagram or, coalesced, several; Drop sees each where it
// was read and must not keep it; Mangle is handed a private copy; the
// member is fed the read buffer itself, which Ingest does not retain.
func (c *Client) Run(ctx context.Context) error {
	defer close(c.done)
	c.Member.SetObs(c.Obs)
	stopWatch := context.AfterFunc(ctx, func() {
		c.conn.SetReadDeadline(time.Now()) //nolint:errcheck
	})
	defer stopWatch()
	for {
		// The quiet timer runs only while the member is short of keys: one
		// that holds them has nothing to NACK, and sleeps until its next
		// datagram. A burst reaches a thousand members hosted together
		// within milliseconds, so their timers would all fire together too,
		// every QuietGap, into whatever the host is doing then.
		var deadline time.Time
		if !c.Member.Done() {
			deadline = time.Now().Add(c.QuietGap)
		}
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return nil
		}
		// Checked after the deadline is set, not before: a cancellation
		// whose wake-up the line above overwrote is seen here, and a later
		// one ends the read.
		if err := ctx.Err(); err != nil {
			return err
		}
		read, seg, err := c.rd.read()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				// Stream pause: the round is over from this member's
				// perspective; NACK if still pending.
				if nack, ok := c.Member.NACK(); ok {
					if raw, err := nack.Marshal(); err == nil {
						c.conn.WriteToUDPAddrPort(raw, c.server) //nolint:errcheck
						c.Obs.Inc(obs.CNACKSent)
					}
				}
				continue
			}
			return nil // socket closed
		}
		c.Obs.Inc(obs.CRecvCalls)
		c.deliver(read, seg)
		c.rd.release()
	}
}

// deliver takes one read apart. A coalesced read is datagrams of seg
// bytes back to back, the last possibly shorter; with any other seg the
// read is one datagram. Each goes through Drop, Mangle and ingest as if
// it had been read alone.
func (c *Client) deliver(read []byte, seg int) {
	if seg <= 0 || seg > len(read) {
		seg = len(read)
	}
	for {
		pkt := read[:min(seg, len(read))]
		read = read[len(pkt):]
		switch {
		case c.Drop != nil && c.Drop(pkt):
			// lost on the receiver link
		case c.Mangle == nil:
			// Ingest copies what it keeps, so the buffer is free for the next read.
			c.ingest(pkt)
		default:
			// The mangler gets a copy of its own: it may hold the packet
			// past the next read, which reuses the buffer.
			for _, p := range c.Mangle(append([]byte(nil), pkt...)) {
				c.ingest(p)
			}
		}
		if len(read) == 0 {
			return
		}
	}
}

// ingest feeds one arrival to the member and records the outcome.
func (c *Client) ingest(pkt []byte) {
	res, err := c.Member.Ingest(pkt)
	if c.Obs.Enabled() {
		c.record(res, err)
	}
}

// record translates one ingest outcome into metrics and trace events.
func (c *Client) record(res rekey.IngestResult, err error) {
	switch res.Kind {
	case packet.TypeENC:
		c.Obs.Inc(obs.CEncRecv)
	case packet.TypePARITY:
		c.Obs.Inc(obs.CParityRecv)
	case packet.TypeUSR:
		c.Obs.Inc(obs.CUsrRecv)
	}
	switch {
	case errors.Is(err, rekey.ErrStale):
		c.Obs.Inc(obs.CIngestStale)
	case err != nil:
		c.Obs.Inc(obs.CIngestErrors)
	case res.Done:
		if res.Recovered {
			c.Obs.Inc(obs.CFECRecoveries)
		}
		v := 0.0
		if res.Recovered {
			v = 1
		}
		c.Obs.Emit(obs.Event{Kind: obs.EvMemberDone, MsgID: res.MsgID,
			User: c.Member.ID(), Value: v})
	}
}
