package protocol

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/tuning"
)

// nack is one scripted NACK.
type nack struct {
	user int
	reqs []packet.BlockRequest
}

func req(block, count uint8) []packet.BlockRequest {
	return []packet.BlockRequest{{BlockID: block, Count: count}}
}

// wire marshals a NACK of message msgID as a member sends it.
func wire(t testing.TB, msgID uint8, reqs []packet.BlockRequest) []byte {
	raw, err := (&packet.NACK{MsgID: msgID, Requests: reqs}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// open starts a Session that adapts nothing on one message of the given
// shape, msgID 7.
func open(t testing.TB, packets, k int, rho float64, rounds, waves int) *Session {
	part, err := blockplan.NewPartition(packets, k)
	if err != nil {
		t.Fatal(err)
	}
	tun := tuning.Default()
	tun.K, tun.InitialRho, tun.MaxMulticastRounds = k, rho, rounds
	s := NewSession(tun, 1, nil)
	s.Open(part, 7, waves)
	return s
}

// refString writes refs as block.shard.
func refString(refs []blockplan.Ref) string {
	var b strings.Builder
	for _, r := range refs {
		fmt.Fprintf(&b, " %d.%d", r.Block, r.Shard)
	}
	return b.String()
}

// transcript drives s through script -- the NACKs of each round or wave
// in turn -- and writes down what it was told to do: "R<round>" and the
// round's refs as block.shard (round one's only counted), or "W<wave>"
// and the users served as user x copies, then after "|" what each NACK
// was worth ("-" when it counted for nothing), and the final step.
func transcript(t *testing.T, s *Session, script [][]nack) string {
	var b strings.Builder
	step := Multicast
	for _, nacks := range script {
		switch {
		case step == Multicast && s.out.Rounds == 1:
			fmt.Fprintf(&b, "R1 (%d)", len(s.Refs()))
		case step == Multicast:
			fmt.Fprintf(&b, "R%d%s", s.out.Rounds, refString(s.Refs()))
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
			if d, ok := s.NACK(n.user, wire(t, s.msgID, n.reqs)); ok {
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

// TestSenderScripts pins the sending half of one message: which shards
// each round sends, whom each wave serves with how many copies, what
// each NACK is worth and when the message ends.
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
			s := open(t, tc.packets, tc.k, tc.rho, tc.rounds, tc.waves)
			part, _ := blockplan.NewPartition(tc.packets, tc.k)
			if !slices.Equal(s.Refs(), blockplan.RoundOne(part, tc.rho)) {
				t.Fatalf("round one %v, want blockplan.RoundOne's", s.Refs())
			}
			if got := transcript(t, s, tc.script); got != tc.want {
				t.Fatalf("transcript\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}

// TestSenderZeroRoundBudget: a round budget of 0 multicasts while
// rounds draw NACKs, up to RoundCap rounds, then unicasts.
func TestSenderZeroRoundBudget(t *testing.T) {
	s := open(t, 25, 10, 1, 0, 1)
	step := Multicast
	for ; step == Multicast; step = s.Next() {
		s.NACK(1, wire(t, s.msgID, req(0, 1)))
	}
	if step != Unicast || s.out.Rounds != RoundCap {
		t.Fatalf("step %d after %d rounds, want unicast after %d", step, s.out.Rounds, RoundCap)
	}
}

// TestSessionNACKIntake: what reaches the intake beside one good NACK.
// Bytes that are no NACK of the open message, or a user's second NACK
// of the round, count for nothing: the waiting set, the round's NACK
// count and round two's parity are the good NACK's alone. A block
// beyond the message and a count above k are clamped.
func TestSessionNACKIntake(t *testing.T) {
	good := wire(t, 7, req(0, 2))
	enc := slices.Clone(good)
	enc[0] = byte(packet.TypeENC)<<6 | 7
	for _, tc := range []struct {
		name   string
		user   int
		raw    []byte
		demand int // -1: counts for nothing
		refs   string
	}{
		{"not a NACK", 2, enc, -1, " 0.5 0.6"},
		{"another message", 2, wire(t, 8, req(1, 3)), -1, " 0.5 0.6"},
		{"empty", 2, nil, -1, " 0.5 0.6"},
		{"short", 2, good[:2], -1, " 0.5 0.6"},
		{"odd-length body", 2, good[:4], -1, " 0.5 0.6"},
		{"second NACK of the user", 1, wire(t, 7, req(1, 3)), -1, " 0.5 0.6"},
		{"block beyond the message", 2, wire(t, 7, req(3, 4)), 4, " 0.5 0.6"},
		{"count above k", 2, wire(t, 7, req(1, 200)), 5, " 0.5 1.5 0.6 1.6 1.7 1.8 1.9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, 15, 5, 1, 2, 1)
			if d, ok := s.NACK(1, good); !ok || d != 2 {
				t.Fatalf("the good NACK: demand %d, ok %v", d, ok)
			}
			d, ok := s.NACK(tc.user, tc.raw)
			if !ok {
				d = -1
			}
			if d != tc.demand {
				t.Fatalf("demand %d, want %d", d, tc.demand)
			}
			want, wantN := map[int]bool{1: true}, 1
			if ok {
				want[tc.user], wantN = true, 2
			}
			if s.Next() != Multicast {
				t.Fatal("the round did not lead to round two")
			}
			if !maps.Equal(s.Waiting(), want) || !slices.Equal(s.Outcome().NACKsPerRound, []int{wantN}) {
				t.Fatalf("waiting %v, NACKs %v; want %v, [%d]", s.Waiting(), s.Outcome().NACKsPerRound, want, wantN)
			}
			if got := refString(s.Refs()); got != tc.refs {
				t.Fatalf("round two%s, want%s", got, tc.refs)
			}
		})
	}
}

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
	sess.Open(part, 7, 1)
	for u, c := range []uint8{5, 4, 1} {
		sess.NACK(u, wire(t, 7, req(0, c)))
	}
	if sess.Next() != Multicast {
		t.Fatal("round one did not lead to round two")
	}
	sess.NACK(0, wire(t, 7, req(0, 1)))
	if sess.Next() != Unicast || sess.Next() != Done {
		t.Fatal("round two's NACK did not lead to one quiet wave")
	}
	if missed := sess.Close(); missed != 1 {
		t.Fatalf("message 7 missed the deadline %d times, want 1", missed)
	}
	first := sess.Outcome()
	// Message 8 opens at the new rho; no miss raises the target again.
	sess.Open(part, 8, 1)
	if got := len(sess.Refs()); got != 2*(tun.K+4) {
		t.Fatalf("message 8's round one sends %d shards, want %d at rho 1.4", got, 2*(tun.K+4))
	}
	if sess.Waiting() != nil {
		t.Fatalf("message 8 opens waiting on %v", sess.Waiting())
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
	if first == sess.Outcome() || !slices.Equal(first.NACKsPerRound, []int{3, 1, 0}) {
		t.Fatalf("message 7's account %+v after message 8, want its own", *first)
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
	sess.Open(part, 1, 2)
	for u := range 4 {
		sess.NACK(u, wire(t, 1, req(0, 1)))
	}
	if sess.Next() != Multicast {
		t.Fatal("round one's NACKs did not lead to round two")
	}
	for u := range 3 {
		sess.NACK(u, wire(t, 1, req(0, 1)))
	}
	if sess.Next() != Unicast {
		t.Fatal("the budget round's NACKs did not lead to unicast")
	}
	sess.NACK(0, wire(t, 1, nil))
	if sess.Next() != Unicast || sess.Next() != Done {
		t.Fatal("wave one's NACK did not lead to one quiet wave")
	}
	if missed := sess.Close(); missed != 3 || sess.NumNACK() != 7 {
		t.Fatalf("%d deadline misses, NACK target %d; want 3, 7", missed, sess.NumNACK())
	}
}

// FuzzSender runs one message through a Session that adapts nothing, at
// a fixed rho, round budget and wave budget, and checks driveMessage's
// invariants: the sending half on its own. The seeds' round budgets are
// 2, 0 and 4, the last at k = 128, where round one's parity leaves round
// two none.
func FuzzSender(f *testing.F) {
	f.Add(uint8(10), uint16(25), uint8(15), uint8(2), uint8(3), []byte{1, 0, 3, 0xff, 1, 0, 3, 0xff, 1})
	f.Add(uint8(1), uint16(300), uint8(26), uint8(0), uint8(1), []byte{7, 255, 255, 0xff, 7, 3, 1})
	f.Add(uint8(128), uint16(128), uint8(20), uint8(4), uint8(0), []byte{0, 0, 200, 0xff, 0, 0, 200, 0xff, 0, 0, 200})
	f.Fuzz(func(t *testing.T, k8 uint8, packets uint16, rho10, rounds, waves uint8, script []byte) {
		k := max(int(k8)%129, 1)
		s := open(t, int(packets)%2000, k, float64(rho10)/10, int(rounds)%70, int(waves)%10)
		driveMessage(t, s, int(rounds)%70, int(waves)%10, script)
	})
}

// FuzzSession runs a Session over a stream of messages of one partition,
// each driven by driveMessage from the script. Every message keeps
// driveMessage's invariants; Close counts deadline misses only off the
// round that hit the budget and moves the NACK target by them; across
// messages rho never falls below min(1, rho0) and the NACK target stays
// in [0, MaxNACK].
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
			sess.Open(part, uint8(msg%64), int(waves)%10)
			script = driveMessage(t, sess, tun.MaxMulticastRounds, int(waves)%10, script)
			before, missed, out := sess.NumNACK(), sess.Close(), sess.Outcome()
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

// driveMessage runs s through its open message, feeding it the NACK
// datagrams of script: (user, block, count) byte triples up to the next
// 0xff, a round or wave apiece. Whatever the NACKs say, no shard goes
// out twice, every parity shard a round sends lies inside the coder's
// range, amax stays at most k, and the message ends within its round
// budget (0 meaning RoundCap) plus waves. The Outcome counts the steps
// and each step's NACKs, and lists round one's data shards as ENC,
// every other ref as PARITY and each wave's Σ Copies over the waiting
// set as USR, a user's copies between 2 and the wave's number plus one.
// It returns the script left over.
func driveMessage(t *testing.T, s *Session, rounds, waves int, script []byte) []byte {
	t.Helper()
	if rounds == 0 || rounds > RoundCap {
		rounds = RoundCap
	}
	sent := make(map[blockplan.Ref]bool)
	out, steps, usr := s.Outcome(), 0, 0
	for step := Multicast; step == Multicast || step == Unicast; step = s.Next() {
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
			s.NACK(int(script[0]%8), wire(t, s.msgID, req(script[1], script[2])))
			script = script[3:]
		}
		if len(script) > 0 {
			script = script[1:]
		}
		for b, a := range s.amax {
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
