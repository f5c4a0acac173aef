//go:build !linux || 386

// Platforms without the batched fan-out's kernel half (burst_linux.go):
// the server sends and the client reads one datagram a call.

package udptrans

import (
	"net"

	"repro/internal/packet"
)

func newMmsg(*net.UDPConn) func(msgs []outMsg) (int, error) { return nil }

func batchRefused(error) bool { return false }

func yield() {}

// reader is a client's receive half: one datagram a read, into the
// client's own buffer.
type reader struct {
	conn *net.UDPConn
	buf  []byte
}

// newReader sizes the buffer for the largest datagram: a packet plus a
// maximal auth trailer on a signed interval.
func newReader(conn *net.UDPConn) (*reader, error) {
	return &reader{conn: conn, buf: make([]byte, packet.PacketLen+packet.MaxAuthTrailer)}, nil
}

// read returns the next datagram, valid until the next call. The
// sender's address is not used: the AddrPort read returns it by value,
// where ReadFromUDP allocates one per datagram.
func (r *reader) read() (b []byte, seg int, err error) {
	n, _, err := r.conn.ReadFromUDPAddrPort(r.buf)
	return r.buf[:n], 0, err
}

func (r *reader) release() {}
