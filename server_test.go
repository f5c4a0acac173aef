package rekey

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
)

// serverGolden pins everything a seeded unsigned Server puts on the wire
// and keeps in its tree, one SHA-256 per interval over MsgID || every
// WireENC || two parity datagrams per block || every member's WireUSR ||
// GroupKey || Snapshot(). Change a digest only together with an
// intentional change of wire or snapshot bytes.
var serverGolden = []struct {
	name          string
	joins, leaves [2]int // [first, count] member-ID ranges
	digest        string
}{
	{"bootstrap", [2]int{0, 1500}, [2]int{}, "58a7cfd7894f2bf8688c38161bdd464d4069b8dab1c8782bcdb13decfbe6c750"},
	{"join-only", [2]int{1500, 700}, [2]int{}, "ca00aab02376021f6e77f2f1f3c9a44724f7d79818624c553b2d0f13c0b9af90"},
	{"leave-only", [2]int{}, [2]int{100, 500}, "f239a1f73151df798baf9a852a26c10f687e5adc10ce46ee6eb2796e8aa01c11"},
	{"replace", [2]int{2200, 400}, [2]int{900, 400}, "e46494b979db431a10559ee8eb2de05f33d3e0c49aa1c623234962b2dac7540a"},
}

// queueRanges queues the joins and leaves of two [first, count] member-ID
// ranges for the next interval.
func queueRanges(t testing.TB, s *Server, joins, leaves [2]int) {
	t.Helper()
	for m := joins[0]; m < joins[0]+joins[1]; m++ {
		if err := s.QueueJoin(MemberID(m)); err != nil {
			t.Fatal(err)
		}
	}
	for m := leaves[0]; m < leaves[0]+leaves[1]; m++ {
		if err := s.QueueLeave(MemberID(m)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerGolden(t *testing.T) {
	s := newServer(t, 0x5eed)
	for _, gc := range serverGolden {
		queueRanges(t, s, gc.joins, gc.leaves)
		rm, err := s.Rekey()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if rm.Blocks() < 2 {
			t.Fatalf("%s: want a multi-block message, got %d block(s)", gc.name, rm.Blocks())
		}
		h := sha256.New()
		h.Write([]byte{rm.MsgID})
		for j := range rm.ENC {
			w, err := rm.WireENC(j)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(w)
		}
		for b := 0; b < rm.Blocks(); b++ {
			for p := 0; p < 2; p++ {
				w, err := rm.AppendWireParity(nil, b, p)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(w)
			}
		}
		for _, uid := range rm.Result.UserIDs {
			w, err := rm.WireUSR(uid)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(w)
		}
		gk := s.GroupKey()
		h.Write(gk[:])
		h.Write(s.Snapshot())
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != gc.digest {
			t.Errorf("%s (%d blocks): digest %s, want %s", gc.name, rm.Blocks(), got, gc.digest)
		}
	}
}

// TestServerSnapshotRoundTrip restores a standby tree from
// Server.Snapshot, checks it holds every member's keys, then applies
// one more identical batch to the server and the standby and checks
// their snapshots still agree.
func TestServerSnapshotRoundTrip(t *testing.T) {
	const seed = 11
	reg := obs.New()
	s, err := NewServer(WithKeySeed(seed), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	bootstrap(t, s, 200)
	for m := 0; m < 40; m++ {
		if err := s.QueueLeave(MemberID(m)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Rekey(); err != nil {
		t.Fatal(err)
	}

	// A snapshot carries no generator position, so the standby's stream
	// is wound forward past the keys the server has already drawn.
	gen := keys.NewDeterministicGenerator(seed)
	if _, err := gen.NewKeys(int(reg.CounterValue(obs.CKeysGenerated))); err != nil {
		t.Fatal(err)
	}
	standby, err := keytree.Restore(s.Snapshot(), gen)
	if err != nil {
		t.Fatal(err)
	}
	if standby.GroupKey() != s.GroupKey() {
		t.Fatal("restored group key differs from the server's")
	}
	if standby.N() != s.N() {
		t.Fatalf("restored N = %d, server N = %d", standby.N(), s.N())
	}
	for _, m := range standby.Members() {
		want, ok := s.PathKeys(m)
		if !ok {
			t.Fatalf("server has no path keys for restored member %d", m)
		}
		got, _ := standby.PathKeys(m)
		if len(got) != len(want) {
			t.Fatalf("member %d: %d path keys restored, want %d", m, len(got), len(want))
		}
		for id, k := range want {
			if got[id] != k {
				t.Fatalf("member %d: restored key of node %d differs", m, id)
			}
		}
	}

	joins := []MemberID{1000, 1001, 1002}
	leaves := []MemberID{50, 51, 120}
	for _, m := range joins {
		if err := s.QueueJoin(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range leaves {
		if err := s.QueueLeave(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Rekey(); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.ProcessBatch(joins, leaves); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(standby.Snapshot(), s.Snapshot()) {
		t.Fatal("server and restored standby diverge after one identical batch")
	}
}

// TestCredentialsNeverHalfEvicted races Credentials against the Rekey
// that evicts the member: the lookup may see the member before or after
// the batch, but never a node ID paired with a zero key.
func TestCredentialsNeverHalfEvicted(t *testing.T) {
	s := newServer(t, 12)
	const n = 64
	bootstrap(t, s, n)
	for round := 0; round < 20; round++ {
		for m := 0; m < n; m++ {
			if err := s.QueueLeave(MemberID(m)); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Rekey()
			done <- err
		}()
		for evicted := false; !evicted; {
			evicted = true
			for m := 0; m < n; m++ {
				cred, ok := s.Credentials(MemberID(m))
				if ok && cred.Key.Zero() {
					t.Fatalf("round %d: member %d: ok credentials with a zero key", round, m)
				}
				evicted = evicted && !ok
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for m := 0; m < n; m++ {
			if err := s.QueueJoin(MemberID(m)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Rekey(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCountsMatchBatch queues joins while Rekey runs: every join
// lands in exactly one batch, so the joins counter must end at the
// number queued however the two interleave.
func TestBatchCountsMatchBatch(t *testing.T) {
	reg := obs.New()
	s, err := NewServer(WithKeySeed(13), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	queued := make(chan error, 1)
	go func() {
		for m := 0; m < n; m++ {
			if err := s.QueueJoin(MemberID(m)); err != nil {
				queued <- err
				return
			}
		}
		queued <- nil
	}()
	for finished := false; !finished; {
		select {
		case err := <-queued:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		if _, err := s.Rekey(); err != nil && !errors.Is(err, ErrNoChange) {
			t.Fatal(err)
		}
	}
	if got := reg.CounterValue(obs.CJoins); got != n {
		t.Fatalf("joins counter = %d after %d joins were processed (N = %d)", got, n, s.N())
	}
}
