package udptrans

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/packet"
	"repro/internal/protocol"
)

// collectNACKs is one window of NACK intake on its own: listen into a
// fresh Sender, then read back the NACK count, each block's largest
// request and the members that NACKed.
func (s *Server) collectNACKs(ctx context.Context, rm *rekey.RekeyMessage, addrOf map[int]netip.AddrPort, buf []byte, dur time.Duration) (nacks int, amax []int, users map[int]bool, err error) {
	snd := protocol.NewSender(rm.Part, 1, 1, 0)
	err = s.listen(ctx, rm, addrOf, snd, buf, dur)
	nacks, amax = snd.NACKs(), slices.Clone(snd.Amax())
	snd.Next()
	return nacks, amax, snd.Waiting(), err
}

// scripted distributes one message to a group of n members after the
// bootstrap -- every third member has left -- and returns what each
// member's socket received, in arrival order and by member ID, with the
// run's Stats. drop(i, r) scripts member i's link for arriving datagram
// r; USR datagrams are never dropped, so the unicast phase keys whoever
// reaches it.
func scripted(t *testing.T, n int, tun rekey.Tuning, drop func(i int, r wireRef) bool) (map[int][]wireRef, *Stats) {
	t.Helper()
	var armed atomic.Bool
	var mu sync.Mutex
	arrivals := make(map[int][]wireRef) // guarded by mu
	ks, srv, clients := group(t, n, func(i int) func([]byte) bool {
		return func(pkt []byte) bool {
			if !armed.Load() {
				return false
			}
			r := wireRef(pkt[:3])
			mu.Lock()
			arrivals[i] = append(arrivals[i], r)
			mu.Unlock()
			return r.kind() != packet.TypeUSR && drop(i, r)
		}
	}, rekey.WithTuning(tun), rekey.WithKeySeed(29))
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
	armed.Store(true)
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 3*time.Second)
	mu.Lock()
	defer mu.Unlock()
	return arrivals, st
}

// TestDistributeScheduleGolden pins what the wire sends: each member's
// received (type, block, shard) sequence and the Stats of a run over two
// multicast rounds and a unicast wave. Members are hashed one by one, in
// ID order, because the order across members follows map iteration.
// Members 1, 6, 11, ... lose every ENC packet, so round two's parity
// keys them; members 2, 7, 12, ... also lose every PARITY packet after
// round one's, so only a USR packet keys them.
func TestDistributeScheduleGolden(t *testing.T) {
	tun := rekey.DefaultTuning()
	tun.K = 2
	tun.InitialRho = 1.5 // one proactive parity packet a block
	proactiveEnd := byte(tun.K + 1)
	arrivals, st := scripted(t, 96, tun, func(i int, r wireRef) bool {
		switch i % 5 {
		case 1:
			return r.kind() == packet.TypeENC
		case 2:
			return r.kind() == packet.TypeENC || r[2] >= proactiveEnd
		}
		return false
	})
	if st.Rounds != 2 || st.UnicastWaves != 1 || st.EncSent < 2*tun.K {
		t.Fatalf("want two blocks, two rounds and one unicast wave: %+v", st)
	}
	ids := make([]int, 0, len(arrivals))
	for id := range arrivals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		binary.Write(h, binary.BigEndian, [2]int64{int64(id), int64(len(arrivals[id]))}) //nolint:errcheck
		for _, r := range arrivals[id] {
			h.Write(r[:])
		}
	}
	fmt.Fprintf(h, "%+v", *st)
	const want = "3a8d305f1f9bf425cdee93fa6adef34c95ba8fa469114dfe49390317d04fcb42"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("schedule digest %s, want %s; stats %+v", got, want, st)
	}
}

// TestNoShardSentTwice: within one message no (block, shard) goes out
// twice -- each round's parity is fresh, never one an earlier round
// sent. Members 1, 5, 9, ... keep only round one's proactive parity, so
// every round draws NACKs and the budget of three rounds runs out.
func TestNoShardSentTwice(t *testing.T) {
	tun := rekey.DefaultTuning()
	tun.K = 2
	tun.InitialRho = 1.5
	tun.MaxMulticastRounds = 3
	arrivals, st := scripted(t, 96, tun, func(i int, r wireRef) bool {
		return i%4 == 1 && (r.kind() == packet.TypeENC || r[2] != byte(tun.K))
	})
	if st.Rounds != 3 || st.UnicastWaves == 0 {
		t.Fatalf("want three rounds, then unicast: %+v", st)
	}
	for id, got := range arrivals {
		seen := make(map[wireRef]bool, len(got))
		for _, r := range got {
			if r.kind() != packet.TypeUSR && seen[r] {
				t.Fatalf("member %d received %v twice", id, r)
			}
			seen[r] = true
		}
	}
}

// TestZeroRoundBudgetMulticastsUntilDone: MaxMulticastRounds = 0 means
// multicast until a round draws no NACK (package tuning), on the wire as
// in the simulator. Members 1, 5, 9, ... lose every ENC packet and the
// parity of rounds two and three, so round four keys them without a
// unicast wave.
func TestZeroRoundBudgetMulticastsUntilDone(t *testing.T) {
	tun := rekey.DefaultTuning()
	tun.K = 2
	tun.InitialRho = 1.5 // round one's parity shard is k
	tun.MaxMulticastRounds = 0
	_, st := scripted(t, 96, tun, func(i int, r wireRef) bool {
		k := byte(tun.K)
		return i%4 == 1 && (r.kind() == packet.TypeENC || k < r[2] && r[2] < k+3)
	})
	if st.Rounds != 4 || st.UnicastWaves != 0 || st.NACKsPerRound[3] != 0 {
		t.Fatalf("want four multicast rounds and no unicast: %+v", st)
	}
}
