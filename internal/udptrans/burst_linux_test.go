//go:build !386

package udptrans

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	rekey "repro"
	"repro/internal/blockplan"
)

// TestRefusedBurstFallsBackPerDatagram: a batch the kernel takes only in
// part resumes at the first message it did not take; a message it then
// refuses with EINVAL -- a segment over the path MTU -- goes out again
// datagram by datagram with the rest of the list. Every member receives
// every datagram of the round once, its own packet first and the rest in
// round order, and the server asks for no batch again.
func TestRefusedBurstFallsBackPerDatagram(t *testing.T) {
	const n = 12
	srv, rm := wiredServer(t, n, rekey.WithKeySeed(54))
	rxOf := make(map[netip.AddrPort]*net.UDPConn, n)
	for i := range n {
		rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		srv.SetMemberAddr(rekey.MemberID(i), rx.LocalAddr().(*net.UDPAddr))
		rxOf[addrPort(rx.LocalAddr().(*net.UDPAddr))] = rx
	}
	members, _ := srv.memberTable(rm)
	refs := blockplan.RoundOne(rm.Part, 1.0)
	k := rm.Part.K
	round := make([]wireRef, len(refs))
	for i, r := range refs {
		w, err := rm.WireENC(r.Block*k + r.Shard)
		if err != nil {
			t.Fatal(err)
		}
		round[i] = wireRef(w[:3])
	}
	taken := n + 2 // the own-packet pass and two messages of the next
	calls, listed := 0, 0
	batch := srv.mmsg
	srv.mmsg = func(msgs []outMsg) (int, error) {
		if calls++; calls == 1 {
			listed = len(msgs)
			return batch(msgs[:taken])
		}
		return 0, &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendmmsg", syscall.EINVAL)}
	}
	for r := 1; r <= 2; r++ {
		if err := srv.multicastRefs(context.Background(), rm, refs, members, nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if calls != 2 || listed <= taken || srv.mmsg != nil {
			t.Fatalf("round %d: %d batch calls, the first of %d messages, batches still on: %v; want %d taken of more, one refusal, then none",
				r, calls, listed, srv.mmsg != nil, taken)
		}
		for _, m := range members {
			own := slices.Index(refs, blockplan.Ref{Block: m.own / k, Shard: m.own % k})
			want := append([]wireRef{round[own]}, slices.Delete(slices.Clone(round), own, own+1)...)
			var got []wireRef
			pkt := make([]byte, 2048)
			for rx := rxOf[m.addr]; ; {
				rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
				n, err := rx.Read(pkt)
				if err != nil {
					break
				}
				got = append(got, wireRef(pkt[:n]))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: member %d received %v, want %v", r, m.node, got, want)
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
	if srv.mmsg == nil {
		t.Fatal("no batches on linux")
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
	one := make([]outMsg, 1)
	send := func(b []byte) error {
		one[0] = outMsg{to: to, iov: [2][]byte{b}, seg: len(wire)}
		return srv.send(context.Background(), one)
	}
	var delivered atomic.Int64 // Drop runs on the receive loop's goroutine at the end
	c.Drop = func([]byte) bool {
		delivered.Add(1)
		return false
	}
	for name, tc := range map[string]struct {
		send func() error
		want int64
	}{
		"single":    {func() error { return send(wire) }, 1},
		"coalesced": {func() error { return send(burst) }, 8},
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
	if err := send(burst); err != nil {
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
