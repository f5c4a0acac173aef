package udptrans

import (
	"context"
	"math/rand/v2"
	"net"
	"net/netip"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/packet"
)

// wiredServer builds a key server + transport with n registered member
// addresses (no clients listening: UDP sends to silent loopback ports
// succeed) and one rekey message, for exercising the send path alone.
func wiredServer(t *testing.T, n int, opts ...rekey.Option) (*Server, *rekey.RekeyMessage) {
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
	for i := 0; i < n; i++ {
		ap := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(40000+i))
		srv.SetMemberAddr(rekey.MemberID(i), net.UDPAddrFromAddrPort(ap))
	}
	return srv, rm
}

// TestSendRefSteadyStateAllocs pins the zero-copy guarantee from the
// socket side: once the rounds' parity is encoded and the server's
// round and send list have grown to a round, a round
// allocates nothing, however many datagrams, bursts and members its two
// passes send, signed or not, with bursts and without. (The name is
// that of the per-ref send function the two passes replaced.)
func TestSendRefSteadyStateAllocs(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []rekey.Option
	}{
		{"unsigned", []rekey.Option{rekey.WithKeySeed(7)}},
		{"signed", []rekey.Option{rekey.WithKeySeed(7), rekey.WithSigner(signer)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, rm := wiredServer(t, 4, tc.opts...)
			k := rm.Part.K
			members, _ := srv.memberTable(rm)
			roundOne := blockplan.RoundOne(rm.Part, 1.2) // k ENC and two PARITY a block
			roundTwo := []blockplan.Ref{{Block: 0, Shard: k}, {Block: 0, Shard: k + 1}}
			nackers := map[int]bool{members[0].node: true}
			rounds := func() {
				// Round one exercises the own-packet pass, round two the
				// NACKers-first pass; both end in the chunk-major one.
				if err := srv.multicastRefs(context.Background(), rm, roundOne, members, nil); err != nil {
					t.Fatal(err)
				}
				if err := srv.multicastRefs(context.Background(), rm, roundTwo, members, nackers); err != nil {
					t.Fatal(err)
				}
			}
			for _, mode := range []string{"bursts", "per datagram"} {
				if mode == "per datagram" {
					srv.mmsg = nil
				}
				rounds() // encodes the parity, grows the round and the send list
				if allocs := testing.AllocsPerRun(50, rounds); allocs != 0 {
					t.Errorf("%s: allocs per two rounds of %d datagrams = %v, want 0", mode, (len(roundOne)+len(roundTwo))*len(members), allocs)
				}
			}
			if len(srv.out) == 0 || srv.round.Parity == 0 {
				t.Fatalf("round two sent %d messages, %d PARITY datagrams", len(srv.out), srv.round.Parity)
			}
		})
	}
}

// TestLoopbackAuthenticated runs the full transport over real sockets
// with interval signing on and every member verifying: trailered
// datagrams cross the wire, lossy members recover blocks from
// authenticated parity, and everyone lands on the group key.
func TestLoopbackAuthenticated(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := rekey.NewServer(rekey.WithKeySeed(11), rekey.WithSigner(signer))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const n = 12
	for i := 0; i < n; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Authenticated() {
		t.Fatal("message not authenticated despite WithSigner")
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
		c.Member.SetVerifier(keys.NewRootVerifier(ks.SignerPublic()))
		if i%2 == 0 {
			// Half the members lose 30% of multicast data packets and
			// must recover through authenticated parity.
			rng := rand.New(rand.NewPCG(uint64(i), 99))
			c.Drop = func(pkt []byte) bool {
				typ, err := packet.Detect(pkt)
				return err == nil && typ == packet.TypeENC && rng.Float64() < 0.3
			}
		}
		clients[rekey.MemberID(i)] = c
		srv.SetMemberAddr(rekey.MemberID(i), c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		t.Cleanup(func() { c.Close() })
	}
	if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
		t.Fatalf("distribute: %v", err)
	}
	waitKeyed(t, ks, clients, 5*time.Second)

	// Second interval: the root verifier caches roll over to a fresh
	// root and everyone re-keys.
	if err := ks.QueueLeave(3); err != nil {
		t.Fatal(err)
	}
	clients[3].Close()
	srv.RemoveMemberAddr(3)
	delete(clients, 3)
	rm2, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Distribute(context.Background(), rm2, DefaultOptions()); err != nil {
		t.Fatalf("distribute 2: %v", err)
	}
	waitKeyed(t, ks, clients, 5*time.Second)
}
