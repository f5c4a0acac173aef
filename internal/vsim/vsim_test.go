package vsim

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	rekey "repro"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/tuning"
)

// adaptive is the paper's default configuration with rho adapting.
func adaptive() Config {
	cfg := Config{Tuning: tuning.Default()}
	cfg.AdaptiveRho = true
	return cfg
}

// world is an evolving group on a star network: a deterministic,
// unsigned key server with a real Member for each of its members, and a
// session over them.
type world struct {
	t    testing.TB
	grp  *Group
	sess *Session
	live []rekey.MemberID
	gone []rekey.MemberID // departed handles, for rejoins
	next rekey.MemberID
	rng  *rand.Rand
}

func newWorld(t testing.TB, cfg Config, n int, star netsim.StarConfig, seed uint64) *world {
	t.Helper()
	tun := rekey.DefaultTuning()
	tun.K = cfg.K
	grp, err := NewGroup(n, rekey.WithTuning(tun), rekey.WithKeySeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, grp: grp, next: rekey.MemberID(n), rng: rand.New(rand.NewPCG(seed, 0x3e1d))}
	for i := 0; i < n; i++ {
		w.live = append(w.live, rekey.MemberID(i))
	}
	star.N, star.Seed = n, seed
	net, err := netsim.NewStar(star)
	if err != nil {
		t.Fatal(err)
	}
	if w.sess, err = NewSession(cfg, net, seed); err != nil {
		t.Fatal(err)
	}
	return w
}

// rekey has leave random members leave, as many join -- the departed
// first, rejoining, when rejoin is set -- and returns the interval's
// message with the group's members.
func (w *world) rekey(leave int, rejoin bool) (*rekey.RekeyMessage, []Member) {
	w.t.Helper()
	w.rng.Shuffle(len(w.live), func(a, b int) { w.live[a], w.live[b] = w.live[b], w.live[a] })
	var joins []rekey.MemberID
	if rejoin {
		joins = append(joins, w.gone[:min(leave, len(w.gone))]...)
		w.gone = w.gone[len(joins):]
	}
	for len(joins) < leave {
		joins = append(joins, w.next)
		w.next++
	}
	leaves := slices.Clone(w.live[:leave])
	w.gone = append(w.gone, leaves...)
	copy(w.live, joins)
	rm, members, err := w.grp.Rekey(joins, leaves)
	if err != nil {
		w.t.Fatal(err)
	}
	return rm, members
}

// run delivers one interval in which a quarter of the group is replaced
// (the paper's L = N/4).
func (w *world) run() *Metrics {
	w.t.Helper()
	rm, members := w.rekey(len(w.live)/4, false)
	met, err := w.sess.Run(rm, members)
	if err != nil {
		w.t.Fatal(err)
	}
	return met
}

// checkKeys requires every member to hold the server's group key and
// the path keys the server says it should.
func (w *world) checkKeys() {
	w.t.Helper()
	srv := w.grp.srv
	group := srv.GroupKey()
	for id, m := range w.grp.members {
		if gk, ok := m.GroupKey(); !ok || !gk.Equal(group) {
			w.t.Fatalf("member %d does not hold the group key", id)
		}
		want, ok := srv.PathKeys(id)
		if !ok {
			w.t.Fatalf("member %d unknown to the server", id)
		}
		held := m.Keys()
		for node, k := range want {
			if got, ok := held[node]; !ok || !got.Equal(k) {
				w.t.Fatalf("member %d lacks the key of node %d", id, node)
			}
		}
	}
}

// finished reports whether the Session served every member that asked:
// all are keyed but the unreached.
func finished(met *Metrics) bool {
	n := met.Unreached
	for _, c := range met.UserRoundHist {
		n += c
	}
	return n == met.NeededUsers
}

func lossless() netsim.StarConfig {
	return netsim.StarConfig{Alpha: 0, PHigh: 0, PLow: 0, PSource: 0}
}

func paperStar() netsim.StarConfig {
	return netsim.StarConfig{Alpha: 0.2, PHigh: 0.2, PLow: 0.02, PSource: 0.01}
}

func TestLosslessOneRound(t *testing.T) {
	cfg := Config{Tuning: tuning.Default()}
	w := newWorld(t, cfg, 512, lossless(), 1)
	rm, members := w.rekey(512/4, false)
	met, err := w.sess.Run(rm, members)
	if err != nil {
		t.Fatal(err)
	}
	if !met.AllDone {
		t.Fatal("not all members keyed on a lossless network")
	}
	if met.Rounds != 1 {
		t.Fatalf("took %d rounds, want 1", met.Rounds)
	}
	if met.NACKsPerRound[0] != 0 {
		t.Fatalf("%d NACKs on a lossless network", met.NACKsPerRound[0])
	}
	if met.UsrSent != 0 {
		t.Fatalf("%d USR packets sent", met.UsrSent)
	}
	// With rho=1 the only overhead is last-block duplication.
	if met.ParitySent != 0 {
		t.Fatalf("parity sent with rho=1 and no loss: %d", met.ParitySent)
	}
	if met.EncSent+met.ParitySent != rm.Part.TotalSlots() {
		t.Fatalf("sent %d, want %d ENC slots (%d real)", met.EncSent+met.ParitySent, rm.Part.TotalSlots(), met.EncPackets)
	}
	if met.MissedDeadline != 0 || met.Unreached != 0 {
		t.Fatalf("%d deadline misses, %d unreached", met.MissedDeadline, met.Unreached)
	}
	if got := met.UserRoundHist[1]; got != met.NeededUsers || got != 512 {
		t.Fatalf("%d of %d members finished in round 1", got, met.NeededUsers)
	}
	w.checkKeys()
}

func TestLossyMulticastOnlyCompletes(t *testing.T) {
	cfg := Config{Tuning: tuning.Default()}
	cfg.MaxMulticastRounds = 0 // multicast until done
	met := newWorld(t, cfg, 1024, paperStar(), 2).run()
	if met.Rounds < 2 {
		t.Fatalf("lossy run finished in %d rounds; suspicious", met.Rounds)
	}
	if met.NACKsPerRound[0] == 0 {
		t.Fatal("no NACKs despite 20% high-loss users")
	}
	if ov := met.BandwidthOverhead(); ov <= 1.0 || ov > 5 {
		t.Fatalf("bandwidth overhead %.2f out of plausible range", ov)
	}
	if met.UsrSent != 0 {
		t.Fatal("unicast used in multicast-only mode")
	}
	if !finished(met) {
		t.Fatalf("multicast-only run did not complete: %+v", met)
	}
}

func TestProactivityReducesNACKs(t *testing.T) {
	// The paper's Fig. 9: first-round NACKs fall steeply with rho.
	nacks := map[float64]int{}
	for _, rho := range []float64{1.0, 1.6, 2.2} {
		cfg := Config{Tuning: tuning.Default()}
		cfg.InitialRho = rho
		cfg.MaxMulticastRounds = 0
		w := newWorld(t, cfg, 2048, paperStar(), 3)
		total := 0
		for i := 0; i < 3; i++ {
			total += w.run().NACKsPerRound[0]
		}
		nacks[rho] = total
	}
	if !(nacks[1.0] > nacks[1.6] && nacks[1.6] > nacks[2.2]) {
		t.Fatalf("NACKs not decreasing in rho: %v", nacks)
	}
	if nacks[1.0] < 10*max(nacks[2.2], 1) {
		t.Fatalf("NACK drop not steep: %v", nacks)
	}
}

func TestUnicastCompletesStragglers(t *testing.T) {
	cfg := Config{Tuning: tuning.Default()}
	cfg.MaxMulticastRounds = 2
	met := newWorld(t, cfg, 2048, paperStar(), 4).run()
	if met.Rounds > 2 {
		t.Fatalf("ran %d multicast rounds, cap 2", met.Rounds)
	}
	// With rho=1 on a lossy network, someone always needs unicast.
	if met.UsrSent == 0 {
		t.Fatal("no USR packets despite unfinished users after 2 rounds")
	}
	// Every member is either in the finishing histogram or unreached.
	if !finished(met) {
		t.Fatalf("run with unicast did not complete: %+v", met)
	}
}

func TestAdjustRhoConvergesToTarget(t *testing.T) {
	// Fig. 12/13: rho settles within a few messages and first-round
	// NACKs fluctuate around numNACK.
	for _, initRho := range []float64{1.0, 2.0} {
		cfg := adaptive()
		cfg.InitialRho = initRho
		cfg.NumNACK = 20
		cfg.MaxMulticastRounds = 0
		w := newWorld(t, cfg, 2048, paperStar(), 5)
		var tail []int
		for i := 0; i < 15; i++ {
			met := w.run()
			if i >= 5 {
				tail = append(tail, met.NACKsPerRound[0])
			}
		}
		sum := 0
		for _, v := range tail {
			sum += v
		}
		avg := float64(sum) / float64(len(tail))
		if avg < 2 || avg > 60 {
			t.Fatalf("initRho=%v: settled NACK average %.1f, want near 20", initRho, avg)
		}
	}
}

func TestAdjustRhoStableValuesAgree(t *testing.T) {
	// Starting from rho=1 and rho=2 must converge to similar rho.
	settle := func(initRho float64) float64 {
		cfg := adaptive()
		cfg.InitialRho = initRho
		cfg.MaxMulticastRounds = 0
		w := newWorld(t, cfg, 2048, paperStar(), 6)
		for i := 0; i < 12; i++ {
			w.run()
		}
		return w.sess.Rho()
	}
	a, b := settle(1.0), settle(2.0)
	if diff := a - b; diff > 0.3 || diff < -0.3 {
		t.Fatalf("stable rho differs: %v vs %v", a, b)
	}
}

func TestNumNACKAdaptsDownOnMisses(t *testing.T) {
	cfg := adaptive()
	cfg.NumNACK = 200
	cfg.MaxNACK = 200
	cfg.AdaptNumNACK = true
	cfg.MaxMulticastRounds = 2
	w := newWorld(t, cfg, 2048, paperStar(), 7)
	start := w.sess.NumNACK()
	missesEarly := 0
	for i := 0; i < 10; i++ {
		met := w.run()
		if i < 3 {
			missesEarly += met.MissedDeadline
		}
	}
	if missesEarly == 0 {
		t.Skip("no early misses; cannot exercise adaptation")
	}
	if w.sess.NumNACK() >= start {
		t.Fatalf("numNACK did not decrease: %d -> %d", start, w.sess.NumNACK())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	runOnce := func() []int {
		w := newWorld(t, adaptive(), 1024, paperStar(), 42)
		var out []int
		for i := 0; i < 5; i++ {
			met := w.run()
			out = append(out, met.NACKsPerRound[0], met.EncSent+met.ParitySent, met.UsrSent, met.Unreached)
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// Results must not depend on the parallel fan-out width.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runWith := func(procs int) []int {
		runtime.GOMAXPROCS(procs)
		w := newWorld(t, adaptive(), 1024, paperStar(), 43)
		var out []int
		for i := 0; i < 3; i++ {
			met := w.run()
			out = append(out, met.NACKsPerRound[0], met.EncSent+met.ParitySent, met.UsrSent, met.MissedDeadline)
		}
		return out
	}
	a, b := runWith(1), runWith(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("GOMAXPROCS changes results at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	w := newWorld(t, adaptive(), 256, lossless(), 8)
	rm, members := w.rekey(64, false)
	if _, err := w.sess.Run(rm, members[:10]); err == nil {
		t.Fatal("member count mismatch accepted")
	}
	if _, err := w.sess.Run(rm, append(members, members...)); err == nil {
		t.Fatal("more members than links accepted")
	}
	other := adaptive()
	other.K = 5
	sess, err := NewSession(other, w.sess.net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(rm, members); err == nil {
		t.Fatal("k mismatch accepted")
	}
	badK := adaptive()
	badK.K = 0
	if _, err := NewSession(badK, nil, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := adaptive()
	bad.AdaptNumNACK = true
	bad.MaxMulticastRounds = 0
	if _, err := NewSession(bad, nil, 1); err == nil {
		t.Fatal("AdaptNumNACK without deadline accepted")
	}
}

func TestEmptyMessage(t *testing.T) {
	net, err := netsim.NewStar(netsim.StarConfig{N: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(adaptive(), net, 10)
	if err != nil {
		t.Fatal(err)
	}
	met, err := s.Run(&rekey.RekeyMessage{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !met.AllDone || met.EncSent+met.ParitySent != 0 {
		t.Fatalf("empty message sent %d packets", met.EncSent+met.ParitySent)
	}
}

// TestRhoAdjustedCarriesMessageID runs a fresh group per message, as the
// paper's stationary runs build them, so every message has the same ID
// while the session counts on. Each RhoAdjusted event must name the
// message whose round one moved rho, as that message's RoundStart does.
func TestRhoAdjustedCarriesMessageID(t *testing.T) {
	reg := obs.New()
	cfg := adaptive()
	cfg.Obs = reg
	// A lossless network draws no NACK, so under a target of 100 rho
	// falls by 1/k after every message: from 2 to 1.5 over five.
	cfg.NumNACK, cfg.InitialRho = 100, 2
	star := lossless()
	star.N, star.Seed = 64, 16
	net, err := netsim.NewStar(star)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(cfg, net, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		grp, err := NewGroup(64, rekey.WithKeySeed(16)) // DefaultTuning's k, as cfg's
		if err != nil {
			t.Fatal(err)
		}
		rm, members, err := grp.Rekey(nil, []rekey.MemberID{3, 17, 40})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(rm, members); err != nil {
			t.Fatal(err)
		}
	}
	var round, adjusted int
	var msgID uint8
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case obs.EvRoundStart:
			round++
			msgID = ev.MsgID
		case obs.EvRhoAdjusted:
			adjusted++
			if round == 0 || ev.MsgID != msgID {
				t.Fatalf("RhoAdjusted %d carries message ID %d, its RoundStart %d", adjusted, ev.MsgID, msgID)
			}
		}
	}
	if adjusted < 5 {
		t.Fatalf("%d RhoAdjusted events over 5 messages, want 5", adjusted)
	}
}

// TestRegistryCountsOutcomes: a run fed a registry reads, in the
// transport's counters, the sums of its messages' Outcomes -- the
// protocol Session counts each figure once, for this driver and
// udptrans alike. Two multicast rounds on a lossy network leave
// stragglers, so every counter moves.
func TestRegistryCountsOutcomes(t *testing.T) {
	reg := obs.New()
	cfg := adaptive()
	cfg.Obs, cfg.MaxMulticastRounds = reg, 2
	w := newWorld(t, cfg, 512, paperStar(), 21)
	var sum protocol.Outcome
	nacks := 0
	for range 3 {
		out := w.run().Outcome
		sum.EncSent += out.EncSent
		sum.ParitySent += out.ParitySent
		sum.UsrSent += out.UsrSent
		sum.UnicastWaves += out.UnicastWaves
		for _, n := range out.NACKsPerRound {
			nacks += n
		}
	}
	for _, c := range []struct {
		name    string
		counter obs.Counter
		want    int
	}{
		{"enc_sent", obs.CEncSent, sum.EncSent},
		{"parity_sent", obs.CParitySent, sum.ParitySent},
		{"usr_sent", obs.CUsrSent, sum.UsrSent},
		{"unicast_waves", obs.CUnicastWaves, sum.UnicastWaves},
		{"nack_recv", obs.CNACKRecv, nacks},
	} {
		if got := reg.CounterValue(c.counter); got != int64(c.want) || c.want == 0 {
			t.Errorf("%s = %d, summed Outcomes %d (want equal and nonzero)", c.name, got, c.want)
		}
	}
}

// TestUnreachedMember: a member whose link drops every datagram of a
// message never learns there is one to ask for. The Session finishes with
// everyone else keyed, the run counts the member unreached, and the
// member gets its keys out of band.
func TestUnreachedMember(t *testing.T) {
	cfg := Config{Tuning: tuning.Default()}
	w := newWorld(t, cfg, 256, lossless(), 14)
	deaf, err := netsim.NewGilbertLink(0.999999, rand.New(rand.NewPCG(14, 0)))
	if err != nil {
		t.Fatal(err)
	}
	w.sess.net.Recv[3] = deaf
	met := w.run()
	if met.Unreached != 1 || met.AllDone {
		t.Fatalf("unreached = %d, AllDone = %v; want 1, false", met.Unreached, met.AllDone)
	}
	if met.Rounds != 1 || met.NACKsPerRound[0] != 0 || met.UsrSent != 0 {
		t.Fatalf("the Session did not finish after round one: %+v", met)
	}
	if got := met.UserRoundHist[1]; got != met.NeededUsers-1 {
		t.Fatalf("%d of %d members keyed in round one", got, met.NeededUsers)
	}
	w.checkKeys()
}

// recorder is a member that notes every multicast shard it ingests.
type recorder struct {
	Member
	seen  map[[2]byte]bool
	twice int
}

func (r *recorder) Ingest(raw []byte) (rekey.IngestResult, error) {
	if packet.Type(raw[0]>>6) != packet.TypeUSR {
		shard := [2]byte{raw[1], raw[2]}
		if r.seen[shard] {
			r.twice++
		}
		r.seen[shard] = true
	}
	return r.Member.Ingest(raw)
}

// TestNoShardSentTwice: within one message no (block, shard) goes out
// twice, so no member hears one twice. Rounds after the first send fresh
// parity, never round one's proactive shards again.
func TestNoShardSentTwice(t *testing.T) {
	later := 0 // messages that went past round one
	for _, rho := range []float64{1, 1.5, 2.6} {
		cfg := Config{Tuning: tuning.Default()}
		cfg.InitialRho = rho
		cfg.MaxMulticastRounds = 0
		w := newWorld(t, cfg, 1024, paperStar(), 12)
		for i := 0; i < 10; i++ {
			rm, members := w.rekey(256, false)
			recs := make([]*recorder, len(members))
			for j, m := range members {
				recs[j] = &recorder{Member: m, seen: make(map[[2]byte]bool)}
				members[j] = recs[j]
			}
			met, err := w.sess.Run(rm, members)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range recs {
				if r.twice > 0 {
					t.Fatalf("rho=%v message %d: member %d heard %d shards twice", rho, i, j, r.twice)
				}
			}
			if met.Rounds > 1 {
				later++
			}
		}
	}
	if later == 0 {
		t.Fatal("no run went past round one")
	}
}

// TestSoakAcrossMsgIDWrap runs an evolving group on the paper star for
// more intervals than three turns of the 6-bit message ID, with leavers
// and rejoiners every interval, and requires every member to hold the
// server's group key and its path keys after each.
func TestSoakAcrossMsgIDWrap(t *testing.T) {
	const intervals = 200
	w := newWorld(t, adaptive(), 256, paperStar(), 15)
	wraps, unreached := 0, 0
	for i := 0; i < intervals; i++ {
		rm, members := w.rekey(4+w.rng.IntN(8), true)
		if rm.MsgID == 0 {
			wraps++
		}
		met, err := w.sess.Run(rm, members)
		if err != nil {
			t.Fatal(err)
		}
		if !finished(met) {
			t.Fatalf("interval %d: run gave up: %+v", i, met)
		}
		unreached += met.Unreached
		w.checkKeys()
	}
	if wraps < 3 {
		t.Fatalf("message ID wrapped %d times, want >= 3", wraps)
	}
	t.Logf("%d intervals, %d msgID wraps, %d members unreached", intervals, wraps, unreached)
}

func TestMetricsDerivations(t *testing.T) {
	m := &Metrics{Outcome: protocol.Outcome{EncSent: 120, ParitySent: 30}, EncPackets: 100,
		UserRoundHist: map[int]int{1: 90, 2: 10}}
	if got := m.BandwidthOverhead(); got != 1.5 {
		t.Fatalf("overhead %v", got)
	}
	if got := m.AvgUserRounds(); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("avg rounds %v", got)
	}
	empty := &Metrics{UserRoundHist: map[int]int{}}
	if empty.BandwidthOverhead() != 0 || empty.AvgUserRounds() != 0 {
		t.Fatal("empty metrics not zero")
	}
}

func BenchmarkSessionN4096(b *testing.B) {
	cfg := adaptive()
	cfg.MaxMulticastRounds = 0
	w := newWorld(b, cfg, 4096, paperStar(), 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.run()
	}
}
