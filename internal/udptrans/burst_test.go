package udptrans

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/packet"
)

// TestSendOrderWithoutBursts reruns the send-order tests on the
// per-datagram path: what the order promises does not depend on how
// many datagrams a send call carries.
func TestSendOrderWithoutBursts(t *testing.T) {
	perDatagram = true
	defer func() { perDatagram = false }()
	t.Run("RoundOneOwnPacketFirstExactlyOnce", TestRoundOneOwnPacketFirstExactlyOnce)
	t.Run("NACKersLeadRoundTwo", TestNACKersLeadRoundTwo)
}

// burstRun distributes one message to a fresh 192-member group, with
// bursts or without, and returns every member's arrivals as its Drop
// hook saw them. Round one is 48 datagrams, longer than one burst cap,
// and on a signed message of two lengths; every seventh member keeps
// one shard a block of it, NACKs, and leads a round two of parity.
func burstRun(t *testing.T, signer *keys.Signer, bursts bool) (map[int][][]byte, *Stats, obs.Snapshot, obs.Snapshot) {
	const n = 192
	perDatagram = !bursts
	defer func() { perDatagram = false }()
	tun := rekey.DefaultTuning()
	tun.K = 2
	tun.InitialRho = 8 // fourteen proactive parity packets a block
	firstRetx := tun.K + blockplan.ProactiveParity(tun.K, tun.InitialRho)
	var armed atomic.Bool
	var mu sync.Mutex
	arrivals := make(map[int][][]byte) // guarded by mu
	drop := func(i int) func([]byte) bool {
		return func(pkt []byte) bool {
			if !armed.Load() {
				return false
			}
			mu.Lock()
			arrivals[i] = append(arrivals[i], bytes.Clone(pkt))
			mu.Unlock()
			if i%7 != 1 {
				return false
			}
			switch seq := int(pkt[2]); packet.Type(pkt[0] >> 6) {
			case packet.TypeENC:
				return true
			case packet.TypePARITY:
				return seq > tun.K && seq < firstRetx
			}
			return false
		}
	}
	sreg, creg := obs.New(), obs.New()
	opts := []rekey.Option{rekey.WithTuning(tun), rekey.WithKeySeed(51), rekey.WithObs(sreg)}
	if signer != nil {
		opts = append(opts, rekey.WithSigner(signer))
	}
	ks, srv, clients := groupWith(t, n, func(i int, c *Client) {
		c.Drop, c.Obs = drop(i), creg
		if signer != nil {
			c.Member.SetVerifier(keys.NewRootVerifier(signer.Public()))
		}
	}, opts...)
	if bursts && srv.mmsg == nil {
		t.Skip("no segmentation offload on this platform")
	}
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
	s0, c0 := sreg.Snapshot(), creg.Snapshot()
	armed.Store(true)
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 3*time.Second)
	armed.Store(false)
	if bursts && srv.mmsg == nil {
		t.Fatal("the kernel refused a burst on loopback")
	}
	mu.Lock()
	defer mu.Unlock()
	s1, c1 := sreg.Snapshot(), creg.Snapshot()
	for name := range s1.Counters {
		s1.Counters[name] -= s0.Counters[name]
		c1.Counters[name] -= c0.Counters[name]
	}
	return arrivals, st, s1, c1
}

// TestBurstsDeliverWhatDatagramsDeliver: with bursts and without, every
// member's arrival sequence is the same bytes in the same order, signed
// and unsigned, over a round one longer than a burst cap and a round two
// that its NACKers lead -- while the burst run makes a fraction of the
// receive calls and a send call per batch of members a pass.
func TestBurstsDeliverWhatDatagramsDeliver(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	for name, signer := range map[string]*keys.Signer{"unsigned": nil, "signed": signer} {
		t.Run(name, func(t *testing.T) {
			want, wantSt, wantSrv, wantCli := burstRun(t, signer, false)
			got, gotSt, gotSrv, gotCli := burstRun(t, signer, true)
			if wantSt.Rounds != 2 || wantSt.EncSent+wantSt.ParitySent <= maxBurst+3 {
				t.Fatalf("reference run is not a long round one and a round two: %+v", wantSt)
			}
			if gotSt.Rounds != wantSt.Rounds || gotSt.EncSent != wantSt.EncSent || gotSt.ParitySent != wantSt.ParitySent || gotSt.UsrSent != wantSt.UsrSent {
				t.Fatalf("bursts sent %+v, datagrams %+v", gotSt, wantSt)
			}
			if len(got) != len(want) {
				t.Fatalf("%d members saw datagrams with bursts, %d without", len(got), len(want))
			}
			for id, w := range want {
				g := got[id]
				if len(g) != len(w) {
					t.Fatalf("member %d saw %d datagrams with bursts, %d without", id, len(g), len(w))
				}
				for i := range w {
					if !bytes.Equal(g[i], w[i]) {
						t.Fatalf("member %d arrival %d differs: % x... with bursts, % x... without", id, i, g[i][:3], w[i][:3])
					}
				}
			}
			fanned := int64(wantSt.EncSent+wantSt.ParitySent) * int64(len(want))
			if calls := wantSrv.Counters["send_calls"]; calls != fanned {
				t.Errorf("per datagram: send_calls = %d, want one per (member, datagram) = %d", calls, fanned)
			}
			if calls := wantCli.Counters["recv_calls"]; calls != fanned {
				t.Errorf("per datagram: recv_calls = %d, want %d", calls, fanned)
			}
			// A pass sends each member a message: each round's first pass,
			// then a pass a chunk, of which each round but the last may end
			// one short. A pass is ⌈members/64⌉ batches, a call each.
			longest := 0
			for _, w := range want {
				for _, d := range w {
					longest = max(longest, len(d))
				}
			}
			chunk, sent := min(maxBurst, maxBurstBytes/longest), wantSt.EncSent+wantSt.ParitySent
			passes := 2*wantSt.Rounds - 1 + (sent+chunk-1)/chunk
			if calls, most := gotSrv.Counters["send_calls"], int64(passes*((len(want)+batchSize-1)/batchSize)); calls > most {
				t.Errorf("bursts: send_calls = %d for %d passes over %d members, want at most %d", calls, passes, len(want), most)
			}
			if calls := gotCli.Counters["recv_calls"]; calls*4 > fanned {
				t.Errorf("bursts: recv_calls = %d for %d datagrams received", calls, fanned)
			}
		})
	}
}

// TestDeliverSplitsCoalescedRead: a coalesced read whose last segment is
// short reaches Drop, Mangle and Ingest once per segment, in order; a
// segment size that cannot be right -- zero, negative, larger than the
// read -- makes the read one datagram, and the next read is whole.
func TestDeliverSplitsCoalescedRead(t *testing.T) {
	srv, rm := wiredServer(t, 4, rekey.WithKeySeed(52))
	cred, _ := srv.ks.Credentials(0)
	c, err := NewClient(cred, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	c.Obs = obs.New()
	var dropped, mangled [][]byte
	c.Drop = func(pkt []byte) bool {
		dropped = append(dropped, bytes.Clone(pkt))
		return false
	}
	c.Mangle = func(pkt []byte) [][]byte {
		mangled = append(mangled, pkt)
		return [][]byte{pkt}
	}
	wire, err := rm.WireENC(rm.Plan.UserPacket[cred.NodeID])
	if err != nil {
		t.Fatal(err)
	}
	segs := [][]byte{wire, wire, wire, wire[:10]}
	c.deliver(bytes.Join(segs, nil), len(wire))
	if len(dropped) != len(segs) || len(mangled) != len(segs) {
		t.Fatalf("Drop saw %d segments, Mangle %d, want %d each", len(dropped), len(mangled), len(segs))
	}
	for i, seg := range segs {
		if !bytes.Equal(dropped[i], seg) || !bytes.Equal(mangled[i], seg) {
			t.Fatalf("segment %d reached Drop as %d bytes, Mangle as %d, want %d", i, len(dropped[i]), len(mangled[i]), len(seg))
		}
	}
	snap := c.Obs.Snapshot().Counters
	if snap["enc_recv"] != 4 || snap["ingest_stale"] != 3 {
		t.Fatalf("Ingest saw %v, want four ENC: the member's own, then three of a message it has", snap)
	}
	if gk, ok := c.Member.GroupKey(); !ok || gk != srv.ks.GroupKey() {
		t.Fatal("member not keyed by the first segment")
	}

	read := bytes.Join(segs[:2], nil)
	for _, seg := range []int{0, -1027, len(read) + 1} {
		dropped = dropped[:0]
		c.deliver(read, seg)
		c.deliver(wire, 0)
		if len(dropped) != 2 || !bytes.Equal(dropped[0], read) || !bytes.Equal(dropped[1], wire) {
			t.Fatalf("segment size %d: Drop saw %d datagrams, want the read whole and the next one", seg, len(dropped))
		}
	}
}

// TestBurstCaps walks rounds of 1 to 200 datagrams, of one length and
// of mixed ones, the way the fan-out does -- chunks, then the runs one
// message carries, around a member's own packet in every other chunk --
// and checks every message against the kernel's limits (64 segments,
// 65 507 bytes), the transport's own tighter caps, and the shape a
// segmented send needs: one length, the last possibly shorter.
func TestBurstCaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 0))
	lengths := map[string]func(i int) int{
		"unsigned": func(int) int { return packet.PacketLen },
		"signed":   func(i int) int { return []int{1493, 1429}[i%3%2] },
		"mixed":    func(int) int { return []int{1, 700, 1429, 1493, 1525}[rng.IntN(5)] },
	}
	for name, length := range lengths {
		for n := 1; n <= 200; n++ {
			offs := make([]int, n+1)
			for i := 0; i < n; i++ {
				offs[i+1] = offs[i] + length(i)
			}
			next := 0
			for lo, hi := 0, 0; lo < n; lo = hi {
				hi = spanEnd(offs, lo, n, -1, false)
				if hi <= lo || hi-lo > maxBurst || (hi-lo > 1 && offs[hi]-offs[lo] > maxBurstBytes) {
					t.Fatalf("%s, %d datagrams: chunk [%d,%d) of %d bytes", name, n, lo, hi, offs[hi]-offs[lo])
				}
				skip := -1 // in every other chunk, the member's own packet
				if lo%2 == 0 {
					skip = lo + rng.IntN(hi-lo)
				}
				for a, b := lo, lo; a < hi; a = b {
					if a == skip {
						b, next = a+1, a+1
						continue
					}
					b = spanEnd(offs, a, hi, skip, true)
					if a != next || b <= a || b > hi {
						t.Fatalf("%s, %d datagrams: run [%d,%d) after %d in chunk [%d,%d)", name, n, a, b, next, lo, hi)
					}
					next = b
					seg := offs[a+1] - offs[a]
					if b-a > 64 || (b-a > 1 && offs[b]-offs[a] > 65507) {
						t.Fatalf("%s, %d datagrams: one call carries %d segments, %d bytes", name, n, b-a, offs[b]-offs[a])
					}
					last := b - 1
					if last == skip {
						last--
					}
					for i := a; i < b; i++ {
						if l := offs[i+1] - offs[i]; i != skip && (l > seg || (l < seg && i != last)) {
							t.Fatalf("%s, %d datagrams: run [%d,%d) of %d-byte segments holds a %d-byte datagram at %d", name, n, a, b, seg, l, i)
						}
					}
				}
			}
			if next != n {
				t.Fatalf("%s: runs cover %d of %d datagrams", name, next, n)
			}
		}
	}
}

// TestDistributeDualStack: a server on [::] reaches members on 127.0.0.1
// and on [::1] in one signed interval -- v4-mapped and IPv6 addresses in
// one send list -- and keys every member, each receiving what it
// receives one datagram a call.
func TestDistributeDualStack(t *testing.T) {
	probe, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback})
	if err != nil {
		t.Skipf("no IPv6 on this host: %v", err)
	}
	probe.Close()
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	run := func(batched bool) map[int][][]byte {
		const n = 48
		ks, err := rekey.NewServer(rekey.WithKeySeed(57), rekey.WithSigner(signer))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ks, "[::]:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if !batched {
			srv.mmsg = nil
		}
		batching := srv.mmsg != nil
		for i := range n {
			if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
				t.Fatal(err)
			}
		}
		rm, err := ks.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		arrivals := make(map[int][][]byte) // guarded by mu
		clients := make(map[rekey.MemberID]*Client, n)
		for i := range n {
			cred, _ := ks.Credentials(rekey.MemberID(i))
			local, server := "127.0.0.1:0", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: srv.Addr().Port}
			if i%2 == 1 {
				local, server = "[::1]:0", &net.UDPAddr{IP: net.IPv6loopback, Port: srv.Addr().Port}
			}
			c, err := NewClientAt(cred, server, local)
			if err != nil {
				t.Fatal(err)
			}
			c.Member.SetVerifier(keys.NewRootVerifier(signer.Public()))
			c.Drop = func(pkt []byte) bool {
				mu.Lock()
				defer mu.Unlock()
				arrivals[i] = append(arrivals[i], bytes.Clone(pkt))
				return false
			}
			clients[rekey.MemberID(i)] = c
			srv.SetMemberAddr(rekey.MemberID(i), c.Addr())
			go c.Run(context.Background()) //nolint:errcheck
			defer c.Close()
		}
		if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		waitKeyed(t, ks, clients, 3*time.Second)
		if batching && srv.mmsg == nil {
			t.Fatal("the kernel refused a batch to a dual-stack group")
		}
		mu.Lock()
		defer mu.Unlock()
		return arrivals
	}
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("%d members saw datagrams batched, %d one a call", len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; !slices.EqualFunc(g, w, bytes.Equal) {
			t.Fatalf("member %d: %d datagrams batched, %d one a call, or the same count in another order", id, len(g), len(w))
		}
	}
}
