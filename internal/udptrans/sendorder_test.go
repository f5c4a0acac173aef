package udptrans

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/obs"
	"repro/internal/packet"
)

// pauseNACKer plays a member on a 20 ms quiet timer over conn, a socket
// connected to the server: see (when non-nil) is handed every datagram,
// and at each pause that follows one, raw goes to the server -- at most
// limit times. The returned function closes conn and waits for the
// reader to end.
func pauseNACKer(conn *net.UDPConn, raw []byte, limit int, see func(pkt []byte)) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		heard := false // a datagram since the last pause
		for {
			conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
			n, err := conn.Read(buf)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if heard && limit > 0 {
					conn.Write(raw) //nolint:errcheck
					limit--
				}
				heard = false
			} else if err != nil {
				return
			} else {
				heard = true
				if see != nil {
					see(buf[:n])
				}
			}
		}
	}()
	return func() {
		conn.Close()
		<-done
	}
}

// wireRef names a datagram by the three bytes every packet type starts
// with: type and message ID, block, sequence number.
type wireRef [3]byte

func (r wireRef) kind() packet.Type { return packet.Type(r[0] >> 6) }

// TestRoundOneOwnPacketFirstExactlyOnce: on a loss-free three-block
// message the first datagram every member sees is its own ENC packet,
// that one Ingest keys it, and the two passes together still hand every
// member every datagram of the round exactly once.
func TestRoundOneOwnPacketFirstExactlyOnce(t *testing.T) {
	// A third of 192 members leaving makes five packets: three blocks
	// of two, the last padded with a duplicate.
	const n = 192
	tun := rekey.DefaultTuning()
	tun.K = 2
	tun.InitialRho = 1.5 // one proactive parity packet a block
	var armed atomic.Bool
	var mu sync.Mutex
	arrivals := make(map[int][]wireRef)    // guarded by mu
	keyedAfterOne := make(map[int]bool, n) // guarded by mu
	var clients map[rekey.MemberID]*Client
	var ks *rekey.Server
	drop := func(i int) func([]byte) bool {
		return func(pkt []byte) bool {
			if !armed.Load() {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			if len(arrivals[i]) == 1 {
				// The receive loop ingested the first datagram before it
				// read this one.
				gk, ok := clients[rekey.MemberID(i)].Member.GroupKey()
				keyedAfterOne[i] = ok && gk == ks.GroupKey()
			}
			arrivals[i] = append(arrivals[i], wireRef(pkt[:3]))
			return false
		}
	}
	var srv *Server
	ks, srv, clients = group(t, n, drop, rekey.WithTuning(tun), rekey.WithKeySeed(31))
	for i := 0; i < n; i += 3 {
		id := rekey.MemberID(i)
		if err := ks.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Blocks() < 3 {
		t.Fatalf("message has %d blocks, want at least 3", rm.Blocks())
	}
	armed.Store(true)
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 3*time.Second)
	if st.Rounds != 1 || st.UsrSent != 0 {
		t.Fatalf("loss-free run took more than round one: %+v", st)
	}

	k := rm.Part.K
	parity := blockplan.ProactiveParity(k, tun.InitialRho)
	mu.Lock()
	defer mu.Unlock()
	for id := range clients {
		got := arrivals[int(id)]
		if len(got) != st.EncSent+st.ParitySent {
			t.Fatalf("member %d saw %d datagrams, want EncSent+ParitySent = %d", id, len(got), st.EncSent+st.ParitySent)
		}
		cred, _ := ks.Credentials(id)
		own, ok := rm.Plan.UserPacket[cred.NodeID]
		if !ok {
			t.Fatalf("member %d has no packet in the plan", id)
		}
		if first := got[0]; first.kind() != packet.TypeENC || int(first[1])*k+int(first[2]) != own {
			t.Errorf("member %d: first datagram is %v, want its own ENC packet %d", id, first, own)
		}
		if !keyedAfterOne[int(id)] {
			t.Errorf("member %d not keyed after its first datagram", id)
		}
		seen := make(map[wireRef]int, len(got))
		for _, r := range got {
			seen[r]++
		}
		for b := 0; b < rm.Blocks(); b++ {
			for s := 0; s < k+parity; s++ {
				typ := packet.TypeENC
				if s >= k {
					typ = packet.TypePARITY
				}
				r := wireRef{byte(typ)<<6 | rm.MsgID, byte(b), byte(s)}
				if seen[r] != 1 {
					t.Errorf("member %d saw %v %d times, want once", id, r, seen[r])
				}
			}
		}
	}
}

// TestNACKersLeadRoundTwo: in a forced second round the NACKer is sent
// the round's whole parity set back to back, before a member that did
// not NACK is sent its first. Both are played by one socket, registered
// under two member IDs, because only one socket's queue orders arrivals
// without a scheduler in between: packet-major order reads p0 p0 p1 p1
// there, NACKers first reads p0 p1 p0 p1.
func TestNACKersLeadRoundTwo(t *testing.T) {
	const nacker, other = 0, 1
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.0 // every parity packet is a retransmission
	srv, rm := wiredServer(t, 8, rekey.WithTuning(tun), rekey.WithKeySeed(32))
	cred, ok := srv.ks.Credentials(nacker)
	if !ok {
		t.Fatal("no credentials")
	}
	nack, err := (&packet.NACK{MsgID: rm.MsgID, UserID: uint16(cred.NodeID),
		Requests: []packet.BlockRequest{{Count: 3, BlockID: 0}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMemberAddr(nacker, conn.LocalAddr().(*net.UDPAddr))
	srv.SetMemberAddr(other, conn.LocalAddr().(*net.UDPAddr))
	var mu sync.Mutex
	var retx []byte // guarded by mu; sequence numbers of the PARITY datagrams, in arrival order
	stop := pauseNACKer(conn, nack, 1, func(pkt []byte) {
		if packet.Type(pkt[0]>>6) == packet.TypePARITY {
			mu.Lock()
			retx = append(retx, pkt[2])
			mu.Unlock()
		}
	})
	defer stop()

	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 || st.ParitySent != 3 {
		t.Fatalf("want one NACK answered by a second round of three parity packets: %+v", st)
	}
	k := byte(rm.Part.K)
	want := []byte{k, k + 1, k + 2, k, k + 1, k + 2}
	mu.Lock()
	defer mu.Unlock()
	if string(retx) != string(want) {
		t.Fatalf("round two reached the NACKer and the other member as %v, want %v", retx, want)
	}
}

// TestNACKQueuedDuringSendIsStale: a NACK that reached the server's
// socket before the round's last datagram left is not feedback on the
// round -- it is discarded and counted as nack_stale, and no USR packet
// answers it. The same NACK arriving inside the window is served.
func TestNACKQueuedDuringSendIsStale(t *testing.T) {
	tun := rekey.DefaultTuning()
	tun.MaxMulticastRounds = 1 // a NACK on round one leads straight to unicast
	reg := obs.New()
	srv, rm := wiredServer(t, 4, rekey.WithTuning(tun), rekey.WithKeySeed(33), rekey.WithObs(reg))
	cred, ok := srv.ks.Credentials(0)
	if !ok {
		t.Fatal("no credentials")
	}
	nack, err := (&packet.NACK{MsgID: rm.MsgID, UserID: uint16(cred.NodeID),
		Requests: []packet.BlockRequest{{Count: 1, BlockID: 0}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMemberAddr(0, conn.LocalAddr().(*net.UDPAddr))

	if _, err := conn.Write(nack); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.UsrSent != 0 || len(st.NACKsPerRound) != 1 || st.NACKsPerRound[0] != 0 {
		t.Fatalf("a NACK queued before the round was sent was taken as its feedback: %+v", st)
	}
	if got := reg.CounterValue(obs.CNACKStale); got != 1 {
		t.Fatalf("nack_stale = %d, want 1", got)
	}

	// On a fresh socket (the first still queues the last run's round) the
	// member NACKs once, a quiet gap after the round: inside the window.
	conn.Close()
	if conn, err = net.DialUDP("udp", nil, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	srv.SetMemberAddr(0, conn.LocalAddr().(*net.UDPAddr))
	stop := pauseNACKer(conn, nack, 1, nil)
	defer stop()
	st, err = srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.UnicastWaves != 1 || st.UsrSent != 2 || st.NACKsPerRound[0] != 1 {
		t.Fatalf("a NACK inside the window was not served by one unicast wave: %+v", st)
	}
	if got := reg.CounterValue(obs.CNACKStale); got != 1 {
		t.Fatalf("nack_stale = %d after a NACK inside the window, want it still 1", got)
	}
	if got, want := reg.CounterValue(obs.CNACKRecv), int64(1); got != want {
		t.Fatalf("nack_recv = %d, want %d", got, want)
	}
}
