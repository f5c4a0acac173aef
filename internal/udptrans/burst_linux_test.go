//go:build !386

package udptrans

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	rekey "repro"
	"repro/internal/blockplan"
)

// TestRefusedBurstFallsBackPerDatagram: a burst the kernel refuses with
// EINVAL -- a segment over the path MTU -- goes out again datagram by
// datagram, nothing is sent twice, and the server asks no more.
func TestRefusedBurstFallsBackPerDatagram(t *testing.T) {
	srv, rm := wiredServer(t, 4, rekey.WithKeySeed(54))
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	srv.SetMemberAddr(0, rx.LocalAddr().(*net.UDPAddr))
	refused := 0
	srv.burst = func([]byte, int, netip.AddrPort) error {
		refused++
		return &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendmsg", syscall.EINVAL)}
	}
	members, _ := srv.memberTable(rm)
	refs := blockplan.RoundOne(rm.Part, 1.0)
	buf := srv.bufs.Get()
	defer buf.Release()
	for round := 1; round <= 2; round++ {
		if err := srv.multicastRefs(context.Background(), rm, refs, members, nil, buf, &Stats{}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if refused != 1 || srv.burst != nil {
			t.Fatalf("round %d: %d bursts refused, bursts still on: %v; want one refusal to turn them off", round, refused, srv.burst != nil)
		}
		seen := make(map[wireRef]int)
		pkt := make([]byte, 2048)
		for {
			rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
			n, err := rx.Read(pkt)
			if err != nil {
				break
			}
			seen[wireRef(pkt[:n])]++
		}
		if len(seen) != len(refs) {
			t.Fatalf("round %d: %d distinct datagrams arrived, want %d", round, len(seen), len(refs))
		}
		for r, n := range seen {
			if n != 1 {
				t.Fatalf("round %d: datagram %v arrived %d times", round, r, n)
			}
		}
	}
}

// TestGROSegment: the segment size is read from a UDP_GRO control
// message and from nothing else.
func TestGROSegment(t *testing.T) {
	oob := make([]byte, syscall.CmsgSpace(4))
	if got := groSegment(oob[:0]); got != 0 {
		t.Fatalf("no control data: segment %d", got)
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = solUDP, udpGRO
	h.SetLen(syscall.CmsgLen(4))
	for _, want := range []int32{1027, 0, -1} {
		binary.NativeEndian.PutUint32(oob[syscall.CmsgLen(0):], uint32(want))
		if got := groSegment(oob); got != int(want) {
			t.Fatalf("segment %d, want %d", got, want)
		}
	}
	h.Type = udpSegment
	if got := groSegment(oob); got != 0 {
		t.Fatalf("another option's control message read as segment %d", got)
	}
}

// TestClientReadSteadyStateAllocs: once warm, a read allocates nothing,
// one datagram or a coalesced burst of them, and a client parked in the
// poller holds no shared read buffer.
func TestClientReadSteadyStateAllocs(t *testing.T) {
	srv, rm := wiredServer(t, 4, rekey.WithKeySeed(55))
	if srv.burst == nil {
		t.Fatal("no bursts on linux")
	}
	cred, _ := srv.ks.Credentials(0)
	c, err := NewClient(cred, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := rm.WireENC(rm.Plan.UserPacket[cred.NodeID])
	if err != nil {
		t.Fatal(err)
	}
	burst := bytes.Repeat(wire, 8)
	to := addrPort(c.Addr())
	var delivered atomic.Int64 // Drop runs on the receive loop's goroutine at the end
	c.Drop = func([]byte) bool {
		delivered.Add(1)
		return false
	}
	for name, tc := range map[string]struct {
		send func() error
		want int64
	}{
		"single":    {func() error { return srv.send("test", wire, to) }, 1},
		"coalesced": {func() error { return srv.burst(burst, len(wire), to) }, 8},
	} {
		read := func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
			c.conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
			b, seg, err := c.rd.read()
			if err != nil {
				t.Fatal(err)
			}
			c.deliver(b, seg)
			c.rd.release()
		}
		read()
		delivered.Store(0)
		if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
			t.Errorf("%s: %v allocations a read, want none", name, allocs)
		}
		if got := delivered.Load(); got != 51*tc.want {
			t.Errorf("%s: %d datagrams delivered by 51 reads, want %d a read", name, got, tc.want)
		}
	}

	// Parked: the receive loop has read everything and waits.
	done := make(chan error, 1)
	go func() { done <- c.Run(context.Background()) }()
	delivered.Store(0)
	if err := srv.burst(burst, len(wire), to); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * c.QuietGap)
	rxBufs.mu.Lock()
	out, peak := rxBufs.out, rxBufs.peak
	rxBufs.mu.Unlock()
	if out != 0 || peak == 0 {
		t.Errorf("%d shared read buffers out with every client parked (high-water mark %d), want 0", out, peak)
	}
	c.Close()
	<-done
}
