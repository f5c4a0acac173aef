package protocol

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockplan"
	"repro/internal/obs"
	"repro/internal/tuning"
)

// TestSessionAcrossMessages: the Session opens each message at the rho
// the last one's round one left, moves the NACK target by each
// message's misses, and emits one trace for it all.
func TestSessionAcrossMessages(t *testing.T) {
	tun := tuning.Default()
	tun.AdaptiveRho, tun.AdaptNumNACK, tun.NumNACK, tun.MaxNACK = true, true, 1, 2
	reg := obs.New()
	sess := NewSession(tun, 1, reg)
	part, err := blockplan.NewPartition(15, tun.K)
	if err != nil {
		t.Fatal(err)
	}
	// Message 7: three NACKs over a target of 1 in round one, the second
	// largest asking 4, so rho goes 1 -> 1.4 and round two sends block
	// 0 the 5 parity its largest asks; one NACK in round two, so
	// the message switches to unicast and misses the deadline once.
	snd := sess.Open(part, 7, 1)
	for u, c := range []uint8{5, 4, 1} {
		snd.NACK(u, req(0, c))
	}
	if sess.Next() != Multicast {
		t.Fatal("round one did not lead to round two")
	}
	snd.NACK(0, req(0, 1))
	if sess.Next() != Unicast || sess.Next() != Done {
		t.Fatal("round two's NACK did not lead to one quiet wave")
	}
	if missed := sess.Close(); missed != 1 {
		t.Fatalf("message 7 missed the deadline %d times, want 1", missed)
	}
	// Message 8 opens at the new rho; no miss raises the target again.
	snd = sess.Open(part, 8, 1)
	if got := len(snd.Refs()); got != 2*(tun.K+4) {
		t.Fatalf("message 8's round one sends %d shards, want %d at rho 1.4", got, 2*(tun.K+4))
	}
	if sess.Next() != Done {
		t.Fatal("a quiet round one did not end message 8")
	}
	if missed := sess.Close(); missed != 0 {
		t.Fatalf("message 8 missed the deadline %d times, want 0", missed)
	}
	if sess.Rho() != 1.4 || sess.NumNACK() != 1 {
		t.Fatalf("rho %v, numNACK %d after both; want 1.4, 1", sess.Rho(), sess.NumNACK())
	}
	var got []string
	for _, ev := range reg.Events() {
		got = append(got, fmt.Sprintf("%s %d %d %g", ev.Kind, ev.MsgID, ev.Round, ev.Value))
	}
	want := "RoundStart 7 1 20|RhoAdjusted 7 0 1.4|RoundStart 7 2 5|SwitchToUnicast 7 2 1|RoundStart 8 1 28"
	if strings.Join(got, "|") != want {
		t.Fatalf("trace\n%s\nwant\n%s", strings.Join(got, "|"), want)
	}
	if g := reg.GaugeValue(obs.GRho); g != 1.4 {
		t.Fatalf("rho gauge %v, want 1.4", g)
	}
}

// TestSessionDeadlineMisses: who NACKs the round that hits the round
// budget missed the deadline, and lowers the NACK target by as many; a
// wave's NACKs and an earlier round's do not count.
func TestSessionDeadlineMisses(t *testing.T) {
	tun := tuning.Default()
	tun.AdaptNumNACK, tun.NumNACK, tun.MaxNACK, tun.MaxMulticastRounds = true, 10, 20, 2
	sess := NewSession(tun, 1, nil)
	part, err := blockplan.NewPartition(15, tun.K)
	if err != nil {
		t.Fatal(err)
	}
	snd := sess.Open(part, 1, 2)
	for u := range 4 {
		snd.NACK(u, req(0, 1))
	}
	if sess.Next() != Multicast {
		t.Fatal("round one's NACKs did not lead to round two")
	}
	for u := range 3 {
		snd.NACK(u, req(0, 1))
	}
	if sess.Next() != Unicast {
		t.Fatal("the budget round's NACKs did not lead to unicast")
	}
	snd.NACK(0, nil)
	if sess.Next() != Unicast || sess.Next() != Done {
		t.Fatal("wave one's NACK did not lead to one quiet wave")
	}
	if missed := sess.Close(); missed != 3 || sess.NumNACK() != 7 {
		t.Fatalf("%d deadline misses, NACK target %d; want 3, 7", missed, sess.NumNACK())
	}
}

// FuzzSession runs a Session over a stream of messages of one partition,
// each driven by driveMessage from the script. Every message's Sender
// keeps FuzzSender's invariants; Close counts deadline misses only off
// the round that hit the budget and moves the NACK target by them;
// across messages rho never falls below min(1, rho0) and the NACK
// target stays in [0, MaxNACK].
func FuzzSession(f *testing.F) {
	f.Add(uint8(10), uint16(25), uint8(10), uint8(2), uint8(3), uint8(1), uint8(20), uint8(3), uint64(1),
		[]byte{1, 0, 3, 2, 0, 9, 0xff, 0xff, 0, 0xff, 2, 0xff, 0xff, 0, 0xff, 0})
	f.Add(uint8(4), uint16(9), uint8(5), uint8(1), uint8(2), uint8(0), uint8(3), uint8(3), uint64(7),
		[]byte{0xff, 0, 0xff, 0, 0xff, 0, 1, 0, 4, 0xff, 3})
	f.Add(uint8(128), uint16(300), uint8(30), uint8(0), uint8(0), uint8(5), uint8(9), uint8(1), uint64(3),
		[]byte{0, 1, 200, 1, 0, 200, 2, 2, 200, 0xff, 0})
	f.Fuzz(func(t *testing.T, k8 uint8, packets uint16, rho10, rounds, waves, target, maxNACK, flags uint8, seed uint64, script []byte) {
		tun := tuning.Default()
		tun.K = max(int(k8)%129, 1)
		tun.InitialRho = float64(rho10) / 10
		tun.MaxMulticastRounds = int(rounds) % 70
		tun.MaxNACK = int(maxNACK)
		tun.NumNACK = int(target) % (tun.MaxNACK + 1)
		tun.AdaptiveRho = flags&1 != 0
		tun.AdaptNumNACK = flags&2 != 0 && tun.MaxMulticastRounds > 0
		if err := tun.Validate(); err != nil {
			t.Fatal(err)
		}
		part, err := blockplan.NewPartition(int(packets)%2000, tun.K)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(tun, seed, nil)
		floor := min(1, tun.InitialRho)
		for msg := 0; msg == 0 || len(script) > 0 && msg < 256; msg++ {
			snd := sess.Open(part, uint8(msg%64), int(waves)%10)
			script = driveMessage(t, snd, sess.Next, tun.MaxMulticastRounds, int(waves)%10, script)
			before, missed, out := sess.NumNACK(), sess.Close(), snd.Outcome()
			if missed < 0 || missed > 0 && (out.Rounds != tun.MaxMulticastRounds || missed != out.NACKsPerRound[out.Rounds-1]) {
				t.Fatalf("message %d: %d deadline misses after %+v", msg, missed, *out)
			}
			if tun.AdaptNumNACK && missed > 0 && sess.NumNACK() != max(before-missed, 0) {
				t.Fatalf("message %d: NACK target %d -> %d after %d misses", msg, before, sess.NumNACK(), missed)
			}
			if rho := sess.Rho(); rho < floor-1e-9 {
				t.Fatalf("message %d: rho %v below min(1, rho0) = %v", msg, rho, floor)
			}
			if n := sess.NumNACK(); n < 0 || n > tun.MaxNACK {
				t.Fatalf("message %d: numNACK %d outside [0, %d]", msg, n, tun.MaxNACK)
			}
		}
	})
}
