package protocol

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/packet"
)

// nack is one scripted NACK.
type nack struct {
	user int
	reqs []packet.BlockRequest
}

func req(block, count uint8) []packet.BlockRequest {
	return []packet.BlockRequest{{BlockID: block, Count: count}}
}

// transcript drives s through script -- the NACKs of each round or wave
// in turn -- and writes down what it was told to do: "R<round>" and the
// round's refs as block.shard (round one's only counted), or "W<wave>"
// and the users served as user x copies, then after "|" what each NACK
// was worth ("-" when it counted for nothing), and the final step.
func transcript(s *Sender, script [][]nack) string {
	var b strings.Builder
	step := Multicast
	for _, nacks := range script {
		switch {
		case step == Multicast && s.out.Rounds == 1:
			fmt.Fprintf(&b, "R1 (%d)", len(s.Refs()))
		case step == Multicast:
			fmt.Fprintf(&b, "R%d", s.out.Rounds)
			for _, r := range s.Refs() {
				fmt.Fprintf(&b, " %d.%d", r.Block, r.Shard)
			}
		case step == Unicast:
			var waiting []int
			for u := range s.Waiting() {
				waiting = append(waiting, u)
			}
			slices.Sort(waiting)
			served := make([]string, len(waiting))
			for i, u := range waiting {
				served[i] = fmt.Sprintf("%dx%d", u, s.Copies(u))
			}
			fmt.Fprintf(&b, "W%d %v", s.out.UnicastWaves, served)
		}
		b.WriteString(" |")
		for _, n := range nacks {
			if d, ok := s.NACK(n.user, n.reqs); ok {
				fmt.Fprintf(&b, " %d", d)
			} else {
				b.WriteString(" -")
			}
		}
		b.WriteString("\n")
		if step = s.Next(); step == Done || step == GiveUp {
			break
		}
	}
	return b.String() + map[Step]string{Multicast: "Multicast", Unicast: "Unicast", Done: "Done", GiveUp: "GiveUp"}[step]
}

func TestSenderScripts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		k, packets    int
		rho           float64
		rounds, waves int
		script        [][]nack
		want          string
	}{{
		name: "round one, then done", k: 2, packets: 5, rho: 1.5, rounds: 2, waves: 3,
		script: [][]nack{nil},
		want:   "R1 (9) |\nDone",
	}, {
		// Round one sent parity shard 2 of every block: later rounds
		// start at 3.
		name: "fresh parity per round", k: 2, packets: 5, rho: 1.5, rounds: 3, waves: 3,
		script: [][]nack{
			{{1, []packet.BlockRequest{{BlockID: 0, Count: 2}, {BlockID: 2, Count: 1}}}},
			{{1, req(0, 1)}},
			nil,
		},
		want: "R1 (9) | 2\nR2 0.3 2.3 0.4 | 1\nR3 0.5 |\nDone",
	}, {
		name: "one NACK a user a round, counts at most k, blocks outside ignored", k: 2, packets: 5, rho: 1, rounds: 2, waves: 3,
		script: [][]nack{
			{{1, req(0, 1)}, {1, req(1, 2)}, {2, req(1, 255)}, {3, req(3, 2)}},
			nil,
		},
		want: "R1 (6) | 1 - 2 2\nR2 0.2 1.2 1.3 |\nDone",
	}, {
		// k = 127 leaves 129 parity indices: round one takes 127,
		// round two the last 2, round three none.
		name: "parity capped at MaxShards", k: 127, packets: 127, rho: 2, rounds: 3, waves: 0,
		script: [][]nack{{{1, req(0, 127)}}, {{1, req(0, 127)}}, {{1, req(0, 127)}}},
		want:   "R1 (254) | 127\nR2 0.254 0.255 | 127\nR3 | 127\nGiveUp",
	}, {
		name: "unicast after the round budget, duplicates 2, 3, 4, then the wave budget", k: 2, packets: 5, rho: 1, rounds: 1, waves: 3,
		script: [][]nack{
			{{5, req(0, 1)}, {7, nil}},
			{{7, nil}, {5, nil}},
			{{5, nil}},
			{{5, nil}},
		},
		want: "R1 (6) | 1 0\nW1 [5x2 7x2] | 0 0\nW2 [5x3 7x3] | 0\nW3 [5x4] | 0\nGiveUp",
	}, {
		// User 7's NACK after wave one is lost, so wave two skips it; a
		// user's copies count the waves that served it, so wave three
		// sends 7 three copies, not the wave's four.
		name: "a NACK lost after wave one: that user's copies resume at 3", k: 2, packets: 5, rho: 1, rounds: 1, waves: 3,
		script: [][]nack{
			{{5, req(0, 1)}, {7, req(0, 1)}},
			{{5, nil}},
			{{5, nil}, {7, nil}},
			{{5, nil}},
		},
		want: "R1 (6) | 1 1\nW1 [5x2 7x2] | 0\nW2 [5x3] | 0 0\nW3 [5x4 7x3] | 0\nGiveUp",
	}, {
		name: "a wave without NACKs ends the message", k: 2, packets: 5, rho: 1, rounds: 1, waves: 3,
		script: [][]nack{{{5, req(0, 1)}}, nil},
		want:   "R1 (6) | 1\nW1 [5x2] |\nDone",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			part, err := blockplan.NewPartition(tc.packets, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSender(part, tc.rho, tc.rounds, tc.waves)
			if !slices.Equal(s.Refs(), blockplan.RoundOne(part, tc.rho)) {
				t.Fatalf("round one %v, want blockplan.RoundOne's", s.Refs())
			}
			if got := transcript(s, tc.script); got != tc.want {
				t.Fatalf("transcript\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}

// TestSenderZeroRoundBudget: a round budget of 0 multicasts while
// rounds draw NACKs, up to RoundCap rounds, then unicasts.
func TestSenderZeroRoundBudget(t *testing.T) {
	part, err := blockplan.NewPartition(25, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSender(part, 1, 0, 1)
	step := Multicast
	for ; step == Multicast; step = s.Next() {
		s.NACK(1, req(0, 1))
	}
	if step != Unicast || s.out.Rounds != RoundCap {
		t.Fatalf("step %d after %d rounds, want unicast after %d", step, s.out.Rounds, RoundCap)
	}
}

// FuzzSender runs the Sender over random partitions, budgets and NACK
// scripts; driveMessage checks what it does and what it accounts.
func FuzzSender(f *testing.F) {
	f.Add(uint8(10), uint16(25), uint8(15), uint8(2), uint8(3), []byte{1, 0, 3, 0xff, 1, 0, 3, 0xff, 1})
	f.Add(uint8(1), uint16(300), uint8(26), uint8(0), uint8(1), []byte{7, 255, 255, 0xff, 7, 3, 1})
	f.Add(uint8(128), uint16(128), uint8(20), uint8(4), uint8(0), []byte{0, 0, 200, 0xff, 0, 0, 200, 0xff, 0, 0, 200})
	f.Fuzz(func(t *testing.T, k8 uint8, packets uint16, rho10, rounds, waves uint8, script []byte) {
		k := max(int(k8)%129, 1)
		part, err := blockplan.NewPartition(int(packets)%2000, k)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSender(part, float64(rho10)/10, int(rounds)%70, int(waves)%10)
		driveMessage(t, s, s.Next, int(rounds)%70, int(waves)%10, script)
	})
}

// driveMessage runs s through one message, ending each round or wave
// with next and feeding it the NACKs of script: (user, block, count)
// byte triples up to the next 0xff, a round or wave apiece. Whatever the
// NACKs say, no shard goes out twice, every parity shard a round sends
// lies inside the coder's range, amax stays at most k, and the message
// ends within its round budget (0 meaning RoundCap) plus waves. The
// Outcome counts the steps and each step's NACKs, and lists round one's
// data shards as ENC, every other ref as PARITY and each wave's Σ Copies
// over the waiting set as USR, a user's copies between 2 and the wave's
// number plus one. It returns the script left over.
func driveMessage(t *testing.T, s *Sender, next func() Step, rounds, waves int, script []byte) []byte {
	t.Helper()
	if rounds == 0 || rounds > RoundCap {
		rounds = RoundCap
	}
	sent := make(map[blockplan.Ref]bool)
	out, steps, usr := s.Outcome(), 0, 0
	for step := Multicast; step == Multicast || step == Unicast; step = next() {
		if steps++; steps > rounds+waves {
			t.Fatalf("still going after %d steps: %d rounds, %d waves", steps-1, out.Rounds, out.UnicastWaves)
		}
		if out.Rounds+out.UnicastWaves != steps || len(out.NACKsPerRound) != steps-1 {
			t.Fatalf("step %d: outcome %+v", steps, *out)
		}
		if step == Unicast {
			wave := 0
			for u := range s.Waiting() {
				c := s.Copies(u)
				if c < 2 || c > out.UnicastWaves+1 {
					t.Fatalf("wave %d sends user %d %d copies", out.UnicastWaves, u, c)
				}
				wave += c
			}
			if out.UsrSent-usr != wave {
				t.Fatalf("wave %d lists %d USR datagrams, Σ Copies = %d", out.UnicastWaves, out.UsrSent-usr, wave)
			}
			usr = out.UsrSent
		}
		if step == Multicast {
			for _, r := range s.Refs() {
				if sent[r] {
					t.Fatalf("round %d sends %v again", out.Rounds, r)
				}
				sent[r] = true
				if r.IsParity(s.k) && r.Shard >= fec.MaxShards {
					t.Fatalf("round %d sends parity %v past shard %d", out.Rounds, r, fec.MaxShards-1)
				}
			}
		}
		// An empty script ends the message with a quiet round.
		for len(script) >= 3 && script[0] != 0xff {
			s.NACK(int(script[0]%8), req(script[1], script[2]))
			script = script[3:]
		}
		if len(script) > 0 {
			script = script[1:]
		}
		for b, a := range s.Amax() {
			if a > s.k {
				t.Fatalf("amax[%d] = %d > k = %d", b, a, s.k)
			}
		}
	}
	if out.EncSent != s.k*len(s.next) || out.EncSent+out.ParitySent != len(sent) || out.UsrSent != usr {
		t.Fatalf("outcome %+v after %d shards and %d USR datagrams", *out, len(sent), usr)
	}
	return script
}
