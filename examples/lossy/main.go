// Lossy: runs the rekey transport over the paper's simulated topology
// (20% of users behind 20%-loss links, the rest at 2%, 1% source loss),
// delivering each interval's real datagrams to a real rekey.Member per
// user, and shows the adaptive proactivity controller converging: after
// a few rekey messages the first-round NACK count settles around the
// target while bandwidth overhead stays modest. It exits non-zero if,
// after any message, a member does not hold the new group key.
//
//	go run ./examples/lossy
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	rekey "repro"
	"repro/internal/netsim"
	"repro/internal/vsim"
)

func main() {
	const n = 4096
	grp, err := vsim.NewGroup(n, rekey.WithKeySeed(42))
	if err != nil {
		log.Fatal(err)
	}
	net, err := netsim.NewStar(netsim.DefaultStar(n, 42))
	if err != nil {
		log.Fatal(err)
	}
	// The paper's defaults: adaptive rho toward 20 first-round NACKs,
	// and unicast after 2 multicast rounds, which is also the deadline.
	cfg := vsim.Config{Tuning: rekey.DefaultTuning()}
	cfg.AdaptiveRho = true
	sess, err := vsim.NewSession(cfg, net, 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("group: %d users (%d leave and %d join per interval), 20%% of receivers at 20%% loss\n", n, n/4, n/4)
	fmt.Printf("%-4s %-6s %-12s %-10s %-10s %-8s %-8s\n",
		"msg", "rho", "round1NACKs", "overhead", "usrPkts", "rounds", "missed")
	rng := rand.New(rand.NewPCG(42, 0))
	for i := 0; i < 15; i++ {
		// A quarter of the group leaves and as many newcomers join.
		live := grp.Tree().Members()
		rng.Shuffle(n, func(a, b int) { live[a], live[b] = live[b], live[a] })
		joins := make([]rekey.MemberID, n/4)
		for j := range joins {
			joins[j] = rekey.MemberID(n + i*n/4 + j)
		}
		rm, members, err := grp.Rekey(joins, live[:n/4])
		if err != nil {
			log.Fatal(err)
		}
		met, err := sess.Run(rm, members)
		if err != nil {
			log.Fatal(err)
		}
		for i, m := range members {
			if k, ok := m.Keys()[0]; !ok || !k.Equal(rm.Result.GroupKey) {
				log.Fatalf("message %d: member %d of %d does not hold the group key", met.MsgID, i, len(members))
			}
		}
		fmt.Printf("%-4d %-6.2f %-12d %-10.3f %-10d %-8d %-8d\n",
			met.MsgID, met.RhoUsed, met.Round1NACKs, met.BandwidthOverhead(),
			met.UsrSent, met.MulticastRounds, met.MissedDeadline)
	}
	fmt.Printf("\nfinal proactivity factor: %.2f (NACK target %d)\n", sess.Rho(), sess.NumNACK())
}
