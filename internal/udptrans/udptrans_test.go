package udptrans

import (
	"context"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/packet"
)

// perDatagram makes the servers the helpers below build send without
// bursts: the reference path, and the one a kernel's refusal leaves.
var perDatagram bool

// group spins up a key server, UDP transport server, and n clients on
// loopback, bootstrapped through the first rekey message.
func group(t *testing.T, n int, drop func(i int) func([]byte) bool, opts ...rekey.Option) (*rekey.Server, *Server, map[rekey.MemberID]*Client) {
	t.Helper()
	return groupWith(t, n, func(i int, c *Client) {
		if drop != nil {
			c.Drop = drop(i)
		}
	}, opts...)
}

// groupWith is group with a hook that sets client i up before it runs.
func groupWith(t *testing.T, n int, setup func(i int, c *Client), opts ...rekey.Option) (*rekey.Server, *Server, map[rekey.MemberID]*Client) {
	t.Helper()
	ks, err := rekey.NewServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if perDatagram {
		srv.mmsg = nil
	}

	for i := 0; i < n; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[rekey.MemberID]*Client, n)
	for i := 0; i < n; i++ {
		cred, ok := ks.Credentials(rekey.MemberID(i))
		if !ok {
			t.Fatalf("no credentials for %d", i)
		}
		c, err := NewClient(cred, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		setup(i, c)
		clients[rekey.MemberID(i)] = c
		srv.SetMemberAddr(rekey.MemberID(i), c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		t.Cleanup(func() { c.Close() })
	}
	if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
		t.Fatalf("bootstrap distribute: %v", err)
	}
	waitKeyed(t, ks, clients, 3*time.Second)
	return ks, srv, clients
}

func waitKeyed(t testing.TB, ks *rekey.Server, clients map[rekey.MemberID]*Client, timeout time.Duration) {
	t.Helper()
	want := ks.GroupKey()
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, c := range clients {
			gk, ok := c.Member.GroupKey()
			if !ok || gk != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			for id, c := range clients {
				gk, ok := c.Member.GroupKey()
				if !ok || gk != want {
					t.Errorf("member %d not keyed (ok=%v)", id, ok)
				}
			}
			t.Fatal("timeout waiting for members to key")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLoopbackLossless(t *testing.T) {
	ks, srv, clients := group(t, 20, nil, rekey.WithKeySeed(1))
	// Churn: 3 leave, 2 join.
	for _, id := range []rekey.MemberID{2, 5, 11} {
		if err := ks.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	for _, id := range []rekey.MemberID{100, 101} {
		if err := ks.QueueJoin(id); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []rekey.MemberID{100, 101} {
		cred, ok := ks.Credentials(id)
		if !ok {
			t.Fatalf("no credentials for %d", id)
		}
		c, err := NewClient(cred, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		srv.SetMemberAddr(id, c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		t.Cleanup(func() { c.Close() })
	}
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.EncSent == 0 {
		t.Fatal("no ENC packets sent")
	}
	waitKeyed(t, ks, clients, 3*time.Second)
}

func TestLoopbackWithLoss(t *testing.T) {
	// A quarter of the members drop 30% of multicast packets: recovery
	// must proceed through NACK-driven parity and, if needed, unicast.
	drop := func(i int) func([]byte) bool {
		if i%4 != 0 {
			return nil
		}
		rng := rand.New(rand.NewPCG(uint64(i), 77))
		return func(pkt []byte) bool {
			typ, err := packet.Detect(pkt)
			if err != nil {
				return false
			}
			// Never drop USR: the escalating-duplicate unicast stage
			// bounds retries; dropping all duplicates forever would
			// just slow the test.
			if typ == packet.TypeUSR {
				return false
			}
			return rng.Float64() < 0.3
		}
	}
	// rho = 1: no proactive parity, so recovery is forced through the
	// NACK-driven reactive path.
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.0
	ks, srv, clients := group(t, 24, drop, rekey.WithTuning(tun), rekey.WithKeySeed(2))

	for i := 0; i < 6; i++ {
		id := rekey.MemberID(i*4 + 1)
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
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 5*time.Second)
	if len(st.NACKsPerRound) == 0 {
		t.Fatal("no NACK rounds recorded")
	}
}

// TestUnicastSkipsMembersKeyedByRoundTwo: the unicast phase serves the
// members still NACKing when it starts, not everyone who ever NACKed.
// Member a keeps one parity shard of round one, so it NACKs, and every
// retransmission of round two, which keys it; member b keeps the same
// first shard and nothing else, and is left for unicast. a must see no
// USR datagram: it used to get two.
func TestUnicastSkipsMembersKeyedByRoundTwo(t *testing.T) {
	const a, b = 3, 4
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.5 // proactive parity: something for a and b to keep
	k := tun.K
	firstRetx := k + blockplan.ProactiveParity(k, tun.InitialRho)
	var armed atomic.Bool
	var usrAt [2]atomic.Int64
	drop := func(i int) func([]byte) bool {
		if i != a && i != b {
			return nil
		}
		return func(pkt []byte) bool {
			if !armed.Load() {
				return false
			}
			switch seq := int(pkt[2]); packet.Type(pkt[0] >> 6) {
			case packet.TypeUSR:
				usrAt[i-a].Add(1)
				return false
			case packet.TypePARITY:
				return seq != k && (i == b || seq < firstRetx)
			}
			return true
		}
	}
	ks, srv, clients := group(t, 20, drop, rekey.WithTuning(tun), rekey.WithKeySeed(5))
	if err := ks.QueueLeave(7); err != nil {
		t.Fatal(err)
	}
	clients[7].Close()
	srv.RemoveMemberAddr(7)
	delete(clients, 7)
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 3*time.Second)
	if len(st.NACKsPerRound) < 3 || st.NACKsPerRound[0] != 2 || st.NACKsPerRound[1] != 1 || st.UnicastWaves == 0 {
		t.Fatalf("want two NACKers in round one, one in round two, then unicast: %+v", st)
	}
	if got := usrAt[0].Load(); got != 0 {
		t.Fatalf("member keyed by round two was sent %d USR datagrams", got)
	}
	if got := usrAt[1].Load(); got == 0 || int(got) != st.UsrSent {
		t.Fatalf("pending member saw %d USR datagrams of %d sent", got, st.UsrSent)
	}
}

// TestForgedNACKCannotAbortInterval: NACKs are unauthenticated, so a
// member on a short quiet timer -- or whoever holds its socket -- can
// answer every pause in the multicast with a NACK asking for 255 parity
// packets of block 0 (one sent while the round is still going out is
// drained as stale, whoever sends it). The server must serve at
// most k of them per round (a member is never short more than k shards)
// and never ask the coder for more parity than it has -- either used to
// fail the whole Distribute with "wants 255 parity packets, max 246".
// A host that only sees the multicast gets nothing at all: its NACKs do
// not come from the address of the node they name.
func TestForgedNACKCannotAbortInterval(t *testing.T) {
	// k = 128 leaves 128 parity indices: round 2 uses them all and
	// round 3 must go without, not error.
	wide := rekey.DefaultTuning()
	wide.K = 128
	wide.MaxMulticastRounds = 3
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		tun          rekey.Tuning
		opts         []rekey.Option
		unregistered bool // the attacker's socket is no member's
	}{
		"k=10":         {tun: rekey.DefaultTuning()},
		"k=128":        {tun: wide},
		"k=10,signed":  {tun: rekey.DefaultTuning(), opts: []rekey.Option{rekey.WithSigner(signer)}},
		"unregistered": {tun: rekey.DefaultTuning(), unregistered: true},
		// On a signed message the forged user ID has no USR leaf: it must
		// never reach the unicast phase, which would fail on it.
		"unregistered,signed": {tun: rekey.DefaultTuning(), opts: []rekey.Option{rekey.WithSigner(signer)}, unregistered: true},
	} {
		t.Run(name, func(t *testing.T) {
			const victim = 5 // the member the attacker is, or names
			reg := obs.New()
			ks, srv, clients := group(t, 20, nil, append(tc.opts, rekey.WithTuning(tc.tun), rekey.WithKeySeed(4), rekey.WithObs(reg))...)
			if err := ks.QueueLeave(7); err != nil {
				t.Fatal(err)
			}
			clients[7].Close()
			srv.RemoveMemberAddr(7)
			delete(clients, 7)
			rm, err := ks.Rekey()
			if err != nil {
				t.Fatal(err)
			}
			cred, ok := ks.Credentials(victim)
			if !ok {
				t.Fatal("no credentials")
			}
			forge := func(user int) []byte {
				raw, err := (&packet.NACK{MsgID: rm.MsgID, UserID: uint16(user),
					Requests: []packet.BlockRequest{{Count: 255, BlockID: 0}}}).Marshal()
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			attacker, err := net.DialUDP("udp", nil, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			k := rm.Part.K
			proactive := blockplan.ProactiveParity(k, tc.tun.InitialRho) * rm.Blocks()

			if tc.unregistered {
				// Every 2 ms, by turns under a member's name and under no one's.
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						case <-time.After(2 * time.Millisecond):
							attacker.Write(forge([]int{cred.NodeID, 0xffff}[i%2])) //nolint:errcheck
						}
					}
				}()
				st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
				close(stop)
				<-done
				attacker.Close()
				if err != nil {
					t.Fatalf("forged NACK aborted the interval: %v", err)
				}
				waitKeyed(t, ks, clients, 3*time.Second)
				if st.Rounds != 1 || st.ParitySent != proactive || st.UsrSent != 0 || st.NACKsPerRound[0] != 0 {
					t.Fatalf("forged NACKs from an unregistered socket bought parity or USR packets: %+v", st)
				}
				if reg.CounterValue(obs.CNACKIgnored) == 0 || reg.CounterValue(obs.CNACKRecv) != 0 {
					t.Fatalf("nack_ignored = %d, nack_recv = %d, want the forgeries ignored", reg.CounterValue(obs.CNACKIgnored), reg.CounterValue(obs.CNACKRecv))
				}
				return
			}

			// The attacker holds the victim's registered socket, names it, and
			// NACKs every multicast round.
			clients[victim].Close()
			delete(clients, victim)
			srv.SetMemberAddr(victim, attacker.LocalAddr().(*net.UDPAddr))
			defer pauseNACKer(attacker, forge(cred.NodeID), tc.tun.MaxMulticastRounds, nil)()

			st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
			if err != nil {
				t.Fatalf("forged NACK aborted the interval: %v", err)
			}
			waitKeyed(t, ks, clients, 3*time.Second)
			if len(st.NACKsPerRound) < 2 || st.NACKsPerRound[0] != 1 {
				t.Fatalf("forged NACK not counted once per round: %v", st.NACKsPerRound)
			}
			limit := min(k*(st.Rounds-1), fec.MaxShards-k)
			if reactive := st.ParitySent - proactive; reactive == 0 || reactive > limit {
				t.Fatalf("reactive parity for block 0 = %d over %d rounds, want in (0, %d]", reactive, st.Rounds, limit)
			}
		})
	}
}

// TestStaleNACKFloodAllocs: NACKs of another message -- late
// ones of the last interval, or anyone's forgeries -- are turned away by
// their source or their first byte, without an allocation. An intake
// that copied each datagram and parsed the copy before comparing message
// IDs made three allocations a datagram, and a fourth for the sender
// address nothing reads.
func TestStaleNACKFloodAllocs(t *testing.T) {
	const flood = 200
	srv, rm := wiredServer(t, 4, rekey.WithKeySeed(9))
	sender, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	// The one that counts comes from a member's registered socket and
	// names that member.
	srv.SetMemberAddr(0, sender.LocalAddr().(*net.UDPAddr))
	cred, ok := srv.ks.Credentials(0)
	if !ok {
		t.Fatal("no credentials")
	}
	reqs := []packet.BlockRequest{{Count: 2, BlockID: 0}, {Count: 1, BlockID: 1}}
	for i := 0; i <= flood; i++ {
		nack := &packet.NACK{MsgID: (rm.MsgID + 1) & packet.MaxMsgID, UserID: uint16(i), Requests: reqs}
		if i == flood {
			nack.MsgID, nack.UserID = rm.MsgID, uint16(cred.NodeID) // behind the flood
		}
		raw, err := nack.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sender.Write(raw); err != nil {
			t.Fatal(err)
		}
	}
	_, addrOf := srv.memberTable(rm)
	buf := make([]byte, 2048)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nacks, amax, users, err := srv.collectNACKs(context.Background(), rm, addrOf, buf, 200*time.Millisecond)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if nacks != 1 || !users[cred.NodeID] || amax[0] != 2 {
		t.Fatalf("nacks=%d users=%v amax=%v, want the one NACK of this message", nacks, users, amax)
	}
	// The Session's own state is a dozen allocations; one per flooded
	// datagram would be two hundred.
	if got := after.Mallocs - before.Mallocs; got > flood/2 {
		t.Errorf("%d allocations while turning away %d stale NACKs, want a count that does not grow with the flood", got, flood)
	}
}

// TestDistributeEmptyMessage: an empty message sends nothing, and the
// options are used as given, so zero ones are refused first.
func TestDistributeEmptyMessage(t *testing.T) {
	ks, err := rekey.NewServer(rekey.WithKeySeed(3))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Distribute(context.Background(), &rekey.RekeyMessage{}, Options{}); err == nil || !strings.Contains(err.Error(), "RoundDur") {
		t.Fatalf("Options{}: err = %v, want one naming RoundDur", err)
	}
	st, err := srv.Distribute(context.Background(), &rekey.RekeyMessage{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.EncSent != 0 {
		t.Fatal("sent packets for an empty message")
	}
}
