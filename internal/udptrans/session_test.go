package udptrans

import (
	"context"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/obs"
	"repro/internal/packet"
)

// TestAdaptiveRhoOnTheWire: with AdaptiveRho on, the server's Session
// carries rho across Distribute calls as vsim's does across Runs. After
// a loss-free bootstrap, which leaves rho at rho0 = 1, every member
// loses half the multicast and a quarter of the group is replaced
// each interval, so round one at rho0 draws far more NACKs than the
// target of 2: rho must rise, round one's NACKs must fall toward the
// target, and each RhoAdjusted event must name the message whose round
// one moved rho.
func TestAdaptiveRhoOnTheWire(t *testing.T) {
	const n, target, intervals = 128, 2, 6
	tun := rekey.DefaultTuning()
	tun.AdaptiveRho, tun.NumNACK = true, target
	reg := obs.NewWithDepth(1 << 14)
	var lossy atomic.Bool
	lose := func(i uint64) func([]byte) bool {
		rng := rand.New(rand.NewPCG(i, 41))
		return func(pkt []byte) bool {
			typ, err := packet.Detect(pkt)
			return lossy.Load() && err == nil && typ != packet.TypeUSR && rng.Float64() < 0.5
		}
	}
	ks, srv, clients := group(t, n, func(i int) func([]byte) bool { return lose(uint64(i)) },
		rekey.WithTuning(tun), rekey.WithKeySeed(41), rekey.WithObs(reg))
	if rho := srv.sess.Rho(); rho != tun.InitialRho {
		t.Fatalf("rho %v after a loss-free bootstrap, want rho0 %v", rho, tun.InitialRho)
	}

	lossy.Store(true)
	var round1 []int
	next := rekey.MemberID(n)
	for i := 0; i < intervals; i++ {
		var joins []rekey.MemberID
		for id := range clients {
			if len(joins) == n/4 {
				break
			}
			if err := ks.QueueLeave(id); err != nil {
				t.Fatal(err)
			}
			clients[id].Close()
			srv.RemoveMemberAddr(id)
			delete(clients, id)
			if err := ks.QueueJoin(next); err != nil {
				t.Fatal(err)
			}
			joins = append(joins, next)
			next++
		}
		rm, err := ks.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range joins {
			cred, _ := ks.Credentials(id)
			c, err := NewClient(cred, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c.Drop = lose(uint64(id))
			clients[id] = c
			srv.SetMemberAddr(id, c.Addr())
			go c.Run(context.Background()) //nolint:errcheck
			t.Cleanup(func() { c.Close() })
		}
		st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		waitKeyed(t, ks, clients, 5*time.Second)
		round1 = append(round1, st.NACKsPerRound[0])
	}
	if rho := srv.sess.Rho(); rho <= tun.InitialRho {
		t.Fatalf("rho %v after %d lossy intervals: it did not rise from rho0 %v", rho, intervals, tun.InitialRho)
	}
	late := 0
	for _, v := range round1[intervals-3:] {
		late += v
	}
	if round1[0] <= target || float64(late)/3 >= float64(round1[0]) {
		t.Fatalf("round-one NACKs %v: the last three do not fall from the first toward %d", round1, target)
	}
	t.Logf("round-one NACKs %v, rho %v", round1, srv.sess.Rho())

	var adjusted int
	var msgID uint8
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case obs.EvRoundStart:
			msgID = ev.MsgID
		case obs.EvRhoAdjusted:
			adjusted++
			if ev.MsgID != msgID {
				t.Fatalf("RhoAdjusted %d carries message ID %d, its RoundStart %d", adjusted, ev.MsgID, msgID)
			}
		}
	}
	if reg.EventsDropped() > 0 || adjusted == 0 {
		t.Fatalf("%d RhoAdjusted events, %d events dropped", adjusted, reg.EventsDropped())
	}
}
