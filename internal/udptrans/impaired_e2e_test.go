package udptrans

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
)

// mangleFor builds a per-member impairment hook: burst loss, reordering
// and duplication composed by a seeded netsim.Mangler. USR packets pass
// through unimpaired -- the escalating-duplicate unicast stage bounds
// retries, and starving it forever only slows the test down.
func mangleFor(seed uint64) func([]byte) [][]byte {
	m, err := netsim.NewMangler(netsim.MangleConfig{
		Loss: 0.25, Interval: 0.05, // bursts span ~2 consecutive packets
		Reorder: 0.20, HoldFor: 3,
		Dup: 0.15,
	}, seed)
	if err != nil {
		panic(err)
	}
	return func(pkt []byte) [][]byte {
		if typ, err := packet.Detect(pkt); err == nil && typ == packet.TypeUSR {
			return [][]byte{pkt}
		}
		return m.Mangle(pkt)
	}
}

// distributeUntilKeyed distributes rm, re-sending if some member is
// still unkeyed: a loss burst can swallow a member's entire view of the
// message, in which case it never NACKs and the server cannot tell it
// from a finished member. Deployments cover that window by periodic
// retransmission; this models it with a bounded retry.
func distributeUntilKeyed(t *testing.T, ks *rekey.Server, srv *Server, rm *rekey.RekeyMessage, clients map[rekey.MemberID]*Client) {
	t.Helper()
	want := ks.GroupKey()
	keyed := func() bool {
		for _, c := range clients {
			if gk, ok := c.Member.GroupKey(); !ok || gk != want {
				return false
			}
		}
		return true
	}
	for attempt := 0; attempt < 4; attempt++ {
		if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
			t.Fatalf("distribute (attempt %d): %v", attempt, err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if keyed() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitKeyed(t, ks, clients, time.Second) // report who is stuck
}

// TestImpairedEndToEnd runs a full rekey cycle over real UDP loopback
// with every client behind a seeded reorder+duplicate+burst-loss
// impairment, then checks the protocol invariants: every survivor
// converges to exactly the server's path keys, no departed member can
// recover the new group key from the rekey message, and the server-side
// key-management counters hold their deterministic values.
func TestImpairedEndToEnd(t *testing.T) {
	const n = 24
	reg := obs.New()
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.0 // no proactive parity: force NACK-driven recovery
	ks, err := rekey.NewServer(rekey.WithTuning(tun), rekey.WithKeySeed(11), rekey.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	addClient := func(id rekey.MemberID, seed uint64) *Client {
		cred, ok := ks.Credentials(id)
		if !ok {
			t.Fatalf("no credentials for %d", id)
		}
		c, err := NewClient(cred, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.Mangle = mangleFor(seed)
		srv.SetMemberAddr(id, c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Bootstrap n members through the first rekey message.
	for i := 0; i < n; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm1, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[rekey.MemberID]*Client, n)
	for i := 0; i < n; i++ {
		clients[rekey.MemberID(i)] = addClient(rekey.MemberID(i), 1000+uint64(i))
	}
	distributeUntilKeyed(t, ks, srv, rm1, clients)

	// Churn batch: 6 leave, 4 join. Keep the leavers' member state for
	// the offline forward-secrecy check.
	leavers := []rekey.MemberID{1, 5, 9, 13, 17, 21}
	departed := make(map[rekey.MemberID]*rekey.Member, len(leavers))
	for _, id := range leavers {
		if err := ks.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
		departed[id] = clients[id].Member
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	joiners := []rekey.MemberID{100, 101, 102, 103}
	for _, id := range joiners {
		if err := ks.QueueJoin(id); err != nil {
			t.Fatal(err)
		}
	}
	rm2, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range joiners {
		clients[id] = addClient(id, 2000+uint64(i))
	}
	distributeUntilKeyed(t, ks, srv, rm2, clients)

	// Key consistency: every survivor holds exactly the path keys the
	// server prescribes (stale extras allowed, wrong or missing not).
	for id, c := range clients {
		want, ok := ks.PathKeys(id)
		if !ok {
			t.Fatalf("server has no path keys for %d", id)
		}
		got := c.Member.Keys()
		for nodeID, wk := range want {
			gk, ok := got[nodeID]
			if !ok {
				t.Fatalf("member %d missing key of node %d", id, nodeID)
			}
			if gk != wk {
				t.Fatalf("member %d holds wrong key for node %d", id, nodeID)
			}
		}
	}

	// Forward secrecy, offline: hand each departed member every ENC
	// packet of the post-leave message; none may recover the new group
	// key (their unwrap keys were all rotated).
	group := ks.GroupKey()
	for id, m := range departed {
		for _, enc := range rm2.ENC {
			m.Ingest(enc[:packet.PacketLen]) //nolint:errcheck // errors expected: keys rotated
		}
		if gk, ok := m.GroupKey(); ok && gk == group {
			t.Fatalf("departed member %d recovered the new group key", id)
		}
	}

	// Stable obs counters: the key-management side is deterministic in
	// the seed and churn sequence, regardless of network timing.
	for _, tc := range []struct {
		name string
		c    obs.Counter
		want int64
	}{
		{"rekeys", obs.CRekeys, 2},
		{"joins", obs.CJoins, int64(n + len(joiners))},
		{"leaves", obs.CLeaves, int64(len(leavers))},
	} {
		if got := reg.CounterValue(tc.c); got != tc.want {
			t.Errorf("counter %s = %d, want %d", tc.name, got, tc.want)
		}
	}
	// keys_generated and wraps must match an identical offline replay of
	// the same churn against the same key seed -- network impairments
	// must not leak into key management.
	reg2 := obs.New()
	ks2, err := rekey.NewServer(rekey.WithTuning(tun), rekey.WithKeySeed(11), rekey.WithObs(reg2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ks2.QueueJoin(rekey.MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ks2.Rekey(); err != nil {
		t.Fatal(err)
	}
	for _, id := range leavers {
		if err := ks2.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range joiners {
		if err := ks2.QueueJoin(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ks2.Rekey(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		c    obs.Counter
	}{{"keys_generated", obs.CKeysGenerated}, {"wraps", obs.CWraps}} {
		live, replay := reg.CounterValue(c.c), reg2.CounterValue(c.c)
		if live == 0 || live != replay {
			t.Errorf("counter %s: live=%d replay=%d (want equal, nonzero)", c.name, live, replay)
		}
	}
}

// TestRoundTwoLosersStayPending is the liveness side of the feedback
// boundary at the default timers (QuietGap 60 ms, RoundDur 150 ms): the
// server discards what queued while it was sending, so a member that
// loses all of round two must NACK again inside round two's window --
// one QuietGap after the round's last datagram -- or the server would
// take the silence for success. Three members keep one parity shard of
// round one, enough to NACK, and lose every other multicast datagram;
// all three must be counted in both rounds, reach the unicast phase and
// end keyed.
func TestRoundTwoLosersStayPending(t *testing.T) {
	const first, losers = 3, 3
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.5 // proactive parity: something to keep
	k := tun.K
	var armed atomic.Bool
	drop := func(i int) func([]byte) bool {
		if i < first || i >= first+losers {
			return nil
		}
		return func(pkt []byte) bool {
			if !armed.Load() {
				return false
			}
			switch packet.Type(pkt[0] >> 6) {
			case packet.TypeUSR:
				return false
			case packet.TypePARITY:
				return int(pkt[2]) != k
			}
			return true
		}
	}
	ks, srv, clients := group(t, 20, drop, rekey.WithTuning(tun), rekey.WithKeySeed(6))
	if err := ks.QueueLeave(11); err != nil {
		t.Fatal(err)
	}
	clients[11].Close()
	srv.RemoveMemberAddr(11)
	delete(clients, 11)
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
	if len(st.NACKsPerRound) < 3 || st.NACKsPerRound[0] != losers || st.NACKsPerRound[1] != losers {
		t.Fatalf("want %d NACKers in round one and again in round two: %+v", losers, st)
	}
	if st.UnicastWaves == 0 || st.UsrSent < 2*losers {
		t.Fatalf("members that lost round two were not served by unicast: %+v", st)
	}
}
