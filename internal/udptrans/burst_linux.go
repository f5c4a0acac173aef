//go:build !386

// The Linux half of the batched fan-out: sendmmsg with UDP segmentation
// offload on the server's socket, coalesced receive on the members'.
// linux/386 has no recvmsg or sendmmsg system call number and takes
// burst_other.go's path.

package udptrans

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// From <linux/udp.h>; package syscall does not carry them.
const (
	solUDP     = 17
	udpSegment = 103 // sendmsg cmsg, uint16: cut the payload into datagrams of this size
	udpGRO     = 104 // socket option; recvmsg cmsg, int: the read is datagrams of this size
)

// mmsgBatch is the kernel's view of a send list, rewritten in place each
// call: a header (struct mmsghdr), an address, two iovecs and a
// UDP_SEGMENT control message (CmsgSpace(2) bytes) a message.
type mmsgBatch struct {
	rc    syscall.RawConn
	inet6 bool // the socket is AF_INET6, as Go makes one bound to [::] or 0.0.0.0: IPv4 addresses go v4-mapped
	hdrs  [batchSize]struct {
		syscall.Msghdr
		msgLen uint32 // bytes sent, set by the kernel
	}
	names [batchSize]syscall.RawSockaddrInet6
	iovs  [batchSize][2]syscall.Iovec
	oob   [batchSize]struct {
		syscall.Cmsghdr
		seg uint16
	}
	try func(fd uintptr) bool

	// Set by try for send.
	n, sent int
	errno   syscall.Errno
}

// newMmsg returns the server's batched send over conn: the list, up to
// batchSize messages of it, in one sendmmsg, and how many the kernel took.
func newMmsg(conn *net.UDPConn) func(msgs []outMsg) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	b := &mmsgBatch{rc: rc, inet6: conn.LocalAddr().(*net.UDPAddr).IP.To4() == nil}
	// One non-blocking attempt at the list: EAGAIN sends the caller to the
	// poller until the socket takes more.
	b.try = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(b.n), 0, 0, 0)
		b.sent, b.errno = int(n), errno
		return errno != syscall.EAGAIN
	}
	return b.send
}

func (b *mmsgBatch) send(msgs []outMsg) (int, error) {
	b.n = min(len(msgs), batchSize)
	for i, m := range msgs[:b.n] {
		h, sa, a := &b.hdrs[i].Msghdr, &b.names[i], m.to.Addr()
		*h = syscall.Msghdr{Name: (*byte)(unsafe.Pointer(sa)), Namelen: syscall.SizeofSockaddrInet6, Iov: &b.iovs[i][0]}
		if !b.inet6 && a.Is4() {
			*(*syscall.RawSockaddrInet4)(unsafe.Pointer(sa)) = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
			h.Namelen = syscall.SizeofSockaddrInet4
		} else {
			*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
			if z := a.Zone(); z != "" {
				if ifi, err := net.InterfaceByName(z); err == nil {
					sa.Scope_id = uint32(ifi.Index)
				}
			}
		}
		// The port sits at the same offset in both families.
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], m.to.Port())
		total := 0
		for _, p := range m.iov {
			if len(p) > 0 {
				b.iovs[i][h.Iovlen].Base = &p[0]
				b.iovs[i][h.Iovlen].SetLen(len(p))
				h.Iovlen++
				total += len(p)
			}
		}
		if c := &b.oob[i]; total > m.seg {
			c.Level, c.Type, c.seg = solUDP, udpSegment, uint16(m.seg)
			c.SetLen(syscall.CmsgLen(2))
			h.Control = (*byte)(unsafe.Pointer(c))
			h.SetControllen(syscall.CmsgSpace(2))
		}
	}
	if err := b.rc.Write(b.try); err != nil {
		return 0, err
	}
	if b.errno != 0 {
		return 0, os.NewSyscallError("sendmmsg", b.errno)
	}
	return b.sent, nil
}

// batchRefused reports whether err is the kernel declining a batch:
// EIO without checksum offload on the route, EINVAL or EMSGSIZE for a
// segment over the path MTU, ENOPROTOOPT before Linux 4.18, ENOSYS
// without sendmmsg.
func batchRefused(err error) bool {
	var errno syscall.Errno
	return errors.As(err, &errno) && (errno == syscall.EIO || errno == syscall.EINVAL ||
		errno == syscall.EMSGSIZE || errno == syscall.ENOPROTOOPT || errno == syscall.ENOSYS)
}

// yield offers the CPU to any other thread that is ready to run on it;
// with none it costs a system call that does nothing.
func yield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) } //nolint:errcheck

// rxBuf holds the largest read a coalescing socket returns.
type rxBuf [64 << 10]byte

// rxBufList is the process's pool of rxBufs. A process may host a
// thousand clients (the benchmark, the tests) and must not own a
// thousand of these: a client borrows one for a read attempt that will
// not block and returns it before it waits again. The pool is the
// rxBufsMax buffers (4 MiB) made on first use; a read that finds them
// all out waits for one. One to three dozen are out at a thousand
// members on two cores, but a collection can park seventy readers in
// mid-delivery, and a list that then allocated past what it kept spent
// 5 MB on one interval and nothing on the next.
type rxBufList struct {
	mu   sync.Mutex
	back sync.Cond // L is mu; signalled by put
	free []*rxBuf  // guarded by mu
	out  int       // guarded by mu; borrowed and not returned
	peak int       // guarded by mu; high-water mark of out
}

const rxBufsMax = 64

var rxBufs rxBufList

func (l *rxBufList) get() *rxBuf {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.back.L == nil {
		l.back.L = &l.mu
		for range rxBufsMax {
			l.free = append(l.free, new(rxBuf))
		}
	}
	for len(l.free) == 0 {
		l.back.Wait()
	}
	l.out++
	l.peak = max(l.peak, l.out)
	b := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return b
}

func (l *rxBufList) put(b *rxBuf) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out--
	l.free = append(l.free, b)
	l.back.Signal()
}

// reader is a client's receive half: recvmsg on a socket with UDP_GRO
// set, through the runtime's poller so read deadlines keep working.
type reader struct {
	rc  syscall.RawConn
	oob []byte // control message of the last read
	try func(fd uintptr) bool

	// Set by try for read.
	held  *rxBuf // what the last read filled; nil once returned
	n     int
	errno syscall.Errno
	msg   syscall.Msghdr
	iov   syscall.Iovec
}

// newReader prepares conn for coalesced reads. A kernel without UDP_GRO
// (before 5.0) fails the option and delivers single datagrams.
func newReader(conn *net.UDPConn) (*reader, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &reader{rc: rc, oob: make([]byte, syscall.CmsgSpace(4))}
	r.try = r.recvmsg
	err = rc.Control(func(fd uintptr) {
		syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) //nolint:errcheck // see above
	})
	return r, err
}

// recvmsg is one non-blocking read attempt: false sends the caller to
// the poller empty-handed. The sender's address is not asked for, which
// syscall.Recvmsg would allocate per call.
func (r *reader) recvmsg(fd uintptr) bool {
	b := rxBufs.get()
	r.iov.Base = &b[0]
	r.iov.SetLen(len(b))
	r.msg = syscall.Msghdr{Iov: &r.iov, Iovlen: 1, Control: &r.oob[0]}
	r.msg.SetControllen(len(r.oob))
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&r.msg)), 0)
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			rxBufs.put(b)
			return false
		}
		r.held, r.n, r.errno = b, int(n), errno
		return true
	}
}

// read blocks, up to the socket's read deadline, for the next read and
// returns its bytes, the shared buffer's until release, and the segment
// size of a coalesced one (0 for a single datagram).
func (r *reader) read() (b []byte, seg int, err error) {
	if err := r.rc.Read(r.try); err != nil {
		return nil, 0, err
	}
	if r.errno != 0 {
		r.release()
		return nil, 0, r.errno
	}
	return r.held[:r.n], groSegment(r.oob[:r.msg.Controllen]), nil
}

// release returns the shared buffer, if the last read still holds it.
func (r *reader) release() {
	if r.held != nil {
		rxBufs.put(r.held)
		r.held = nil
	}
}

// groSegment returns the segment size in a read's control data, 0 when
// the kernel attached none: the read was one datagram.
func groSegment(oob []byte) int {
	if len(oob) < syscall.CmsgLen(4) {
		return 0
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	if h.Level != solUDP || h.Type != udpGRO {
		return 0
	}
	return int(int32(binary.NativeEndian.Uint32(oob[syscall.CmsgLen(0):])))
}
