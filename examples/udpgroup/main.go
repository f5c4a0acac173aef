// UDPGroup: a complete group over real UDP sockets on loopback. The key
// server multicasts ENC + proactive PARITY packets; a quarter of the
// members drop 50% of multicast packets, so recovery exercises the
// NACK / reactive-parity / unicast machinery end to end -- the protocol
// on real bytes rather than in the simulator. It exits non-zero unless
// every member agrees on the group key after each interval.
//
//	go run ./examples/udpgroup
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	rekey "repro"
	"repro/internal/keys"
	"repro/internal/packet"
	"repro/internal/udptrans"
)

func main() {
	ctx := context.Background()
	const n = 150
	// Rely on reactive recovery (rho = 1) so the NACK path shows up.
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.0
	ks, err := rekey.NewServer(rekey.WithTuning(tun))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := udptrans.NewServer(ks, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("key server transport on %s\n", srv.Addr())

	for i := 1; i <= n; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			log.Fatal(err)
		}
	}
	msg, err := ks.Rekey()
	if err != nil {
		log.Fatal(err)
	}

	clients := map[rekey.MemberID]*udptrans.Client{}
	for i := 1; i <= n; i++ {
		id := rekey.MemberID(i)
		cred, _ := ks.Credentials(id)
		c, err := udptrans.NewClient(cred, srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		if i%4 == 0 { // every 4th member sits behind a lossy link
			rng := rand.New(rand.NewPCG(uint64(i), 99))
			c.Drop = func(pkt []byte) bool {
				typ, err := packet.Detect(pkt)
				if err != nil || typ == packet.TypeUSR {
					return false
				}
				return rng.Float64() < 0.5
			}
		}
		clients[id] = c
		srv.SetMemberAddr(id, c.Addr())
		go c.Run(ctx) //nolint:errcheck
		defer c.Close()
	}

	opts := udptrans.DefaultOptions()
	st, err := srv.Distribute(ctx, msg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: %d ENC, %d PARITY, %d USR, rounds %d, NACKs/round %v\n",
		st.EncSent, st.ParitySent, st.UsrSent, st.Rounds, st.NACKsPerRound)

	want := ks.GroupKey()
	fmt.Printf("group key %s: %d/%d members agree\n", want.String(), mustAgree(clients, want), len(clients))

	// Churn interval: ten members leave, one joins.
	for _, id := range []rekey.MemberID{4, 9, 13, 21, 33, 47, 58, 66, 79, 91} {
		if err := ks.QueueLeave(id); err != nil {
			log.Fatal(err)
		}
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	if err := ks.QueueJoin(1000); err != nil {
		log.Fatal(err)
	}
	msg, err = ks.Rekey()
	if err != nil {
		log.Fatal(err)
	}
	cred, _ := ks.Credentials(1000)
	c, err := udptrans.NewClient(cred, srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	clients[1000] = c
	srv.SetMemberAddr(1000, c.Addr())
	go c.Run(ctx) //nolint:errcheck
	defer c.Close()

	st, err = srv.Distribute(ctx, msg, opts)
	if err != nil {
		log.Fatal(err)
	}
	want = ks.GroupKey()
	fmt.Printf("after churn: group key %s: %d/%d members agree (%d ENC, %d PARITY, %d USR)\n",
		want.String(), mustAgree(clients, want), len(clients), st.EncSent, st.ParitySent, st.UsrSent)
}

// mustAgree returns how many clients hold want as their group key and
// exits non-zero unless all of them do.
func mustAgree(clients map[rekey.MemberID]*udptrans.Client, want keys.Key) int {
	agree := 0
	for _, c := range clients {
		if gk, ok := c.Member.GroupKey(); ok && gk.Equal(want) {
			agree++
		}
	}
	if agree != len(clients) {
		log.Fatalf("group key %s: only %d/%d members agree", want.String(), agree, len(clients))
	}
	return agree
}
