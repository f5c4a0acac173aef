package udptrans

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	server *net.UDPAddr

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
// lost; Run drains them.
func NewClientOnConn(cred rekey.Credentials, serverAddr *net.UDPAddr, conn *net.UDPConn) (*Client, error) {
	m, err := rekey.NewMember(cred)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{
		Member:   m,
		conn:     conn,
		server:   serverAddr,
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
// Every datagram is read into one buffer. Drop sees it there and must
// not keep it; Mangle is handed a private copy; the member is fed the
// buffer itself, which Ingest does not retain.
func (c *Client) Run(ctx context.Context) error {
	defer close(c.done)
	c.Member.SetObs(c.Obs)
	stopWatch := context.AfterFunc(ctx, func() {
		c.conn.SetReadDeadline(time.Now()) //nolint:errcheck
	})
	defer stopWatch()
	// Sized for the largest possible datagram: a packet plus a
	// maximal auth trailer on a signed interval.
	buf := make([]byte, packet.PacketLen+packet.MaxAuthTrailer)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.QuietGap)); err != nil {
			return nil
		}
		// The sender's address is not used: the AddrPort read returns it
		// by value, where ReadFromUDP allocates one per datagram.
		n, _, err := c.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				// Stream pause: the round is over from this member's
				// perspective; NACK if still pending.
				if nack, ok := c.Member.NACK(); ok {
					if raw, err := nack.Marshal(); err == nil {
						c.conn.WriteToUDP(raw, c.server) //nolint:errcheck
						c.Obs.Inc(obs.CNACKSent)
					}
				}
				continue
			}
			return nil // socket closed
		}
		pkt := buf[:n]
		if c.Drop != nil && c.Drop(pkt) {
			continue
		}
		if c.Mangle == nil {
			// Ingest copies what it keeps, so buf is free for the next read.
			c.ingest(pkt)
			continue
		}
		// The mangler gets a copy of its own: it may hold the packet past
		// the next read, which reuses buf.
		for _, p := range c.Mangle(append([]byte(nil), pkt...)) {
			c.ingest(p)
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
