package protocol

import (
	"testing"

	"repro/internal/blockplan"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// session builds a generator, star network and session for an N-user
// group with J=0, L=n/4 churn (the paper's default workload).
func session(t testing.TB, cfg Config, n int, star netsim.StarConfig, seed uint64) (*workload.Generator, *Session) {
	t.Helper()
	gen, err := workload.NewGenerator(n, 4, cfg.K, seed)
	if err != nil {
		t.Fatal(err)
	}
	star.N = gen.PostBatchUsers(0, n/4)
	star.Seed = seed
	net, err := netsim.NewStar(star)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg, net, seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen, s
}

func lossless() netsim.StarConfig {
	return netsim.StarConfig{Alpha: 0, PHigh: 0, PLow: 0, PSource: 0}
}

func paperStar() netsim.StarConfig {
	return netsim.StarConfig{Alpha: 0.2, PHigh: 0.2, PLow: 0.02, PSource: 0.01}
}

func next(t testing.TB, gen *workload.Generator, j, l int) *Message {
	t.Helper()
	res, plan, err := gen.Batch(j, l)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := BuildMessage(res, plan, gen.K(), gen.Degree())
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func run(t testing.TB, gen *workload.Generator, s *Session, n int) *Metrics {
	t.Helper()
	met, err := s.Run(next(t, gen, 0, n/4))
	if err != nil {
		t.Fatal(err)
	}
	return met
}

func TestLosslessOneRound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveRho = false
	gen, s := session(t, cfg, 512, lossless(), 1)
	met := run(t, gen, s, 512)
	if !met.AllDone {
		t.Fatal("not all users recovered on a lossless network")
	}
	if met.MulticastRounds != 1 {
		t.Fatalf("took %d rounds, want 1", met.MulticastRounds)
	}
	if met.Round1NACKs != 0 {
		t.Fatalf("%d NACKs on a lossless network", met.Round1NACKs)
	}
	if met.UsrSent != 0 {
		t.Fatalf("%d USR packets sent", met.UsrSent)
	}
	// With rho=1 the only overhead is last-block duplication.
	if met.ParitySent != 0 {
		t.Fatalf("parity sent with rho=1 and no loss: %d", met.ParitySent)
	}
	if met.MulticastSent != met.EncPackets+met.DupSent {
		t.Fatalf("sent %d, want %d ENC + %d dup", met.MulticastSent, met.EncPackets, met.DupSent)
	}
	if met.MissedDeadline != 0 {
		t.Fatalf("%d deadline misses", met.MissedDeadline)
	}
	if got := met.UserRoundHist[1]; got != met.NeededUsers {
		t.Fatalf("%d of %d users finished in round 1", got, met.NeededUsers)
	}
}

func TestLossyMulticastOnlyCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveRho = false
	cfg.MaxMulticastRounds = 0 // multicast until done
	cfg.DeadlineRounds = 0
	gen, s := session(t, cfg, 1024, paperStar(), 2)
	met := run(t, gen, s, 1024)
	if !met.AllDone {
		t.Fatal("multicast-only run did not complete")
	}
	if met.MulticastRounds < 2 {
		t.Fatalf("lossy run finished in %d rounds; suspicious", met.MulticastRounds)
	}
	if met.Round1NACKs == 0 {
		t.Fatal("no NACKs despite 20% high-loss users")
	}
	if ov := met.BandwidthOverhead(); ov <= 1.0 || ov > 5 {
		t.Fatalf("bandwidth overhead %.2f out of plausible range", ov)
	}
	if met.UsrSent != 0 {
		t.Fatal("unicast used in multicast-only mode")
	}
}

func TestProactivityReducesNACKs(t *testing.T) {
	// The paper's Fig. 9: first-round NACKs fall steeply with rho.
	nacks := map[float64]int{}
	for _, rho := range []float64{1.0, 1.6, 2.2} {
		cfg := DefaultConfig()
		cfg.AdaptiveRho = false
		cfg.InitialRho = rho
		cfg.MaxMulticastRounds = 0
		cfg.DeadlineRounds = 0
		gen, s := session(t, cfg, 2048, paperStar(), 3)
		total := 0
		for i := 0; i < 3; i++ {
			total += run(t, gen, s, 2048).Round1NACKs
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
	cfg := DefaultConfig()
	cfg.AdaptiveRho = false
	cfg.MaxMulticastRounds = 2
	gen, s := session(t, cfg, 2048, paperStar(), 4)
	met := run(t, gen, s, 2048)
	if !met.AllDone {
		t.Fatal("run with unicast did not complete")
	}
	if met.MulticastRounds > 2 {
		t.Fatalf("ran %d multicast rounds, cap 2", met.MulticastRounds)
	}
	// With rho=1 on a lossy network, someone always needs unicast.
	if met.UsrSent == 0 {
		t.Fatal("no USR packets despite unfinished users after 2 rounds")
	}
	// Every needed user is accounted for in the finishing histogram.
	total := 0
	for _, c := range met.UserRoundHist {
		total += c
	}
	if total != met.NeededUsers {
		t.Fatalf("histogram covers %d of %d users", total, met.NeededUsers)
	}
}

func TestAdjustRhoConvergesToTarget(t *testing.T) {
	// Fig. 12/13: rho settles within a few messages and first-round
	// NACKs fluctuate around numNACK.
	for _, initRho := range []float64{1.0, 2.0} {
		cfg := DefaultConfig()
		cfg.InitialRho = initRho
		cfg.NumNACK = 20
		cfg.MaxMulticastRounds = 0
		cfg.DeadlineRounds = 0
		gen, s := session(t, cfg, 4096, paperStar(), 5)
		var tail []int
		for i := 0; i < 15; i++ {
			met := run(t, gen, s, 4096)
			if i >= 5 {
				tail = append(tail, met.Round1NACKs)
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
		cfg := DefaultConfig()
		cfg.InitialRho = initRho
		cfg.MaxMulticastRounds = 0
		cfg.DeadlineRounds = 0
		gen, s := session(t, cfg, 4096, paperStar(), 6)
		for i := 0; i < 12; i++ {
			run(t, gen, s, 4096)
		}
		return s.Rho()
	}
	a, b := settle(1.0), settle(2.0)
	if diff := a - b; diff > 0.3 || diff < -0.3 {
		t.Fatalf("stable rho differs: %v vs %v", a, b)
	}
}

func TestNumNACKAdaptsDownOnMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNACK = 200
	cfg.MaxNACK = 200
	cfg.AdaptNumNACK = true
	cfg.DeadlineRounds = 2
	cfg.MaxMulticastRounds = 2
	gen, s := session(t, cfg, 2048, paperStar(), 7)
	start := s.NumNACK()
	missesEarly := 0
	for i := 0; i < 10; i++ {
		met := run(t, gen, s, 2048)
		if i < 3 {
			missesEarly += met.MissedDeadline
		}
	}
	if missesEarly == 0 {
		t.Skip("no early misses; cannot exercise adaptation")
	}
	if s.NumNACK() >= start {
		t.Fatalf("numNACK did not decrease: %d -> %d", start, s.NumNACK())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	runOnce := func() []int {
		cfg := DefaultConfig()
		gen, s := session(t, cfg, 1024, paperStar(), 42)
		var out []int
		for i := 0; i < 5; i++ {
			met := run(t, gen, s, 1024)
			out = append(out, met.Round1NACKs, met.MulticastSent, met.UsrSent)
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
	runWith := func(workers int) []int {
		cfg := DefaultConfig()
		cfg.Workers = workers
		gen, s := session(t, cfg, 1024, paperStar(), 43)
		var out []int
		for i := 0; i < 3; i++ {
			met := run(t, gen, s, 1024)
			out = append(out, met.Round1NACKs, met.MulticastSent, met.UsrSent, met.MissedDeadline)
		}
		return out
	}
	a, b := runWith(1), runWith(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker counts change results at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	gen, s := session(t, cfg, 256, lossless(), 8)
	msg := next(t, gen, 0, 64)
	msg.UserPkt = msg.UserPkt[:10] // wrong population
	if _, err := s.Run(msg); err == nil {
		t.Fatal("population mismatch accepted")
	}
	badK := DefaultConfig()
	badK.K = 0
	if _, err := NewSession(badK, nil, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := DefaultConfig()
	bad.AdaptNumNACK = true
	bad.DeadlineRounds = 0
	if _, err := NewSession(bad, nil, 1); err == nil {
		t.Fatal("AdaptNumNACK without deadline accepted")
	}
}

func TestEarlyUnicastSwitches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveRho = false
	cfg.MaxMulticastRounds = 10
	cfg.EarlyUnicast = true
	cfg.DeadlineRounds = 0
	gen, s := session(t, cfg, 2048, paperStar(), 9)
	met := run(t, gen, s, 2048)
	if !met.AllDone {
		t.Fatal("run did not complete")
	}
	// With few stragglers and small USR packets, the switch happens well
	// before the 10-round cap.
	if met.MulticastRounds >= 10 && met.UsrSent == 0 {
		t.Fatalf("early unicast never triggered: %d rounds, %d USR", met.MulticastRounds, met.UsrSent)
	}
}

func TestEmptyMessage(t *testing.T) {
	cfg := DefaultConfig()
	gen, err := workload.NewGenerator(64, 4, cfg.K, 10)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewStar(netsim.StarConfig{N: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg, net, 10)
	if err != nil {
		t.Fatal(err)
	}
	met, err := s.Run(next(t, gen, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !met.AllDone || met.MulticastSent != 0 {
		t.Fatalf("empty message sent %d packets", met.MulticastSent)
	}
}

func BenchmarkSessionN4096(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MaxMulticastRounds = 0
	cfg.DeadlineRounds = 0
	gen, s := session(b, cfg, 4096, paperStar(), 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, gen, s, 4096)
	}
}

// TestNoShardSentTwice: within one message no (block, shard) goes out
// twice. Rounds after the first send fresh parity, never round one's
// proactive shards again.
func TestNoShardSentTwice(t *testing.T) {
	var sent map[blockplan.Ref]bool
	later := 0 // refs sent after round one, over all runs
	observeRefs = func(refs []blockplan.Ref) {
		if len(sent) > 0 {
			later += len(refs)
		}
		for _, r := range refs {
			if sent[r] {
				t.Fatalf("shard %v sent twice", r)
			}
			sent[r] = true
		}
	}
	defer func() { observeRefs = nil }()
	for _, rho := range []float64{1, 1.5, 2.6} {
		cfg := DefaultConfig()
		cfg.AdaptiveRho = false
		cfg.InitialRho = rho
		cfg.MaxMulticastRounds = 0
		gen, s := session(t, cfg, 1024, paperStar(), 12)
		for i := 0; i < 10; i++ {
			sent = make(map[blockplan.Ref]bool)
			run(t, gen, s, 1024)
		}
	}
	if later == 0 {
		t.Fatal("no run went past round one")
	}
}
