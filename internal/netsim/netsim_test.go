package netsim

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

func TestGilbertRejectsBadRates(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		if _, err := NewGilbertLink(p, rng); err == nil {
			t.Errorf("loss rate %v accepted", p)
		}
	}
}

func TestGilbertZeroLoss(t *testing.T) {
	l, err := NewGilbertLink(0, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if l.Lost(float64(i) * 0.05) {
			t.Fatal("zero-loss link dropped a packet")
		}
	}
}

func TestGilbertStationaryLossRate(t *testing.T) {
	// Sampling at fixed intervals over a long horizon must observe loss
	// close to the configured rate.
	for _, p := range []float64{0.02, 0.20, 0.5} {
		l, err := NewGilbertLink(p, rand.New(rand.NewPCG(3, uint64(p*1000))))
		if err != nil {
			t.Fatal(err)
		}
		lost := 0
		const n = 200000
		for i := 0; i < n; i++ {
			if l.Lost(float64(i) * 0.1) {
				lost++
			}
		}
		got := float64(lost) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("p=%v: observed loss %.4f", p, got)
		}
	}
}

func TestGilbertBurstiness(t *testing.T) {
	// With 100 ms mean bursts and 10 ms sampling, a lost sample must be
	// followed by another lost sample much more often than the marginal
	// loss rate: P(lost | prev lost) >> p.
	l, _ := NewGilbertLink(0.2, rand.New(rand.NewPCG(4, 4)))
	prev := false
	lossAfterLoss, losses := 0, 0
	const n = 200000
	for i := 0; i < n; i++ {
		cur := l.Lost(float64(i) * 0.01)
		if prev {
			losses++
			if cur {
				lossAfterLoss++
			}
		}
		prev = cur
	}
	if losses == 0 {
		t.Fatal("no losses observed")
	}
	condLoss := float64(lossAfterLoss) / float64(losses)
	if condLoss < 0.6 {
		t.Errorf("P(loss|loss) = %.3f; bursts too weak for a Gilbert model", condLoss)
	}
}

func TestGilbertTimeMonotonicityClamped(t *testing.T) {
	l, _ := NewGilbertLink(0.2, rand.New(rand.NewPCG(5, 5)))
	l.Lost(10)
	// An earlier timestamp must not panic or rewind the chain.
	_ = l.Lost(5)
	_ = l.Lost(10)
}

func TestNewStarValidation(t *testing.T) {
	if _, err := NewStar(StarConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewStar(StarConfig{N: 4, Alpha: 1.5}); err == nil {
		t.Error("alpha>1 accepted")
	}
	if _, err := NewStar(StarConfig{N: 4, PHigh: 2}); err == nil {
		t.Error("PHigh=2 accepted")
	}
}

func TestStarHighLossFraction(t *testing.T) {
	cfg := DefaultStar(1000, 42)
	s, err := NewStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, h := range s.HighLoss {
		if h {
			high++
		}
	}
	if high != 200 {
		t.Fatalf("%d high-loss users, want 200", high)
	}
	for u, link := range s.Recv {
		want := cfg.PLow
		if s.HighLoss[u] {
			want = cfg.PHigh
		}
		if link.LossRate() != want {
			t.Fatalf("user %d loss rate %v, want %v", u, link.LossRate(), want)
		}
	}
}

func TestStarDeterministicForSeed(t *testing.T) {
	times := make([]float64, 50)
	for i := range times {
		times[i] = float64(i) * 0.1
	}
	run := func() [][]int {
		s, err := NewStar(DefaultStar(64, 7))
		if err != nil {
			t.Fatal(err)
		}
		rd := s.MulticastRound(times)
		out := make([][]int, 64)
		for u := 0; u < 64; u++ {
			out[u] = rd.Received(nil, u)
		}
		return out
	}
	a, b := run(), run()
	for u := range a {
		if len(a[u]) != len(b[u]) {
			t.Fatalf("user %d: runs differ", u)
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				t.Fatalf("user %d: runs differ at %d", u, i)
			}
		}
	}
}

func TestStarConcurrentReceivedMatchesSerial(t *testing.T) {
	times := make([]float64, 80)
	for i := range times {
		times[i] = float64(i) * 0.1
	}
	const n = 128
	serial := func() [][]int {
		s, _ := NewStar(DefaultStar(n, 99))
		rd := s.MulticastRound(times)
		out := make([][]int, n)
		for u := 0; u < n; u++ {
			out[u] = rd.Received(nil, u)
		}
		return out
	}()
	parallel := func() [][]int {
		s, _ := NewStar(DefaultStar(n, 99))
		rd := s.MulticastRound(times)
		out := make([][]int, n)
		var wg sync.WaitGroup
		for u := 0; u < n; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[u] = rd.Received(nil, u)
			}()
		}
		wg.Wait()
		return out
	}()
	for u := 0; u < n; u++ {
		if len(serial[u]) != len(parallel[u]) {
			t.Fatalf("user %d: concurrent result differs", u)
		}
		for i := range serial[u] {
			if serial[u][i] != parallel[u][i] {
				t.Fatalf("user %d: concurrent result differs at %d", u, i)
			}
		}
	}
}

func TestMulticastLossRatesPlausible(t *testing.T) {
	// Over many packets, a low-loss user should receive ~97% (2% link +
	// 1% source) and a high-loss user ~79%.
	s, err := NewStar(DefaultStar(400, 123))
	if err != nil {
		t.Fatal(err)
	}
	const rounds, per = 200, 20
	recv := make([]int, 400)
	for r := 0; r < rounds; r++ {
		times := make([]float64, per)
		for i := range times {
			times[i] = float64(r*per+i) * 0.1
		}
		rd := s.MulticastRound(times)
		for u := 0; u < 400; u++ {
			recv[u] += len(rd.Received(nil, u))
		}
	}
	lowSum, lowN, highSum, highN := 0.0, 0, 0.0, 0
	for u := 0; u < 400; u++ {
		frac := float64(recv[u]) / float64(rounds*per)
		if s.HighLoss[u] {
			highSum += frac
			highN++
		} else {
			lowSum += frac
			lowN++
		}
	}
	lowAvg, highAvg := lowSum/float64(lowN), highSum/float64(highN)
	if math.Abs(lowAvg-0.97) > 0.02 {
		t.Errorf("low-loss delivery %.3f, want ~0.97", lowAvg)
	}
	if math.Abs(highAvg-0.79) > 0.04 {
		t.Errorf("high-loss delivery %.3f, want ~0.79", highAvg)
	}
}

func TestUnicastDelivery(t *testing.T) {
	s, err := NewStar(StarConfig{N: 4, Alpha: 0, PLow: 0, PSource: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Unicast(2, 1.0) {
		t.Fatal("lossless unicast dropped")
	}
}
