package netsim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// --- GilbertLink boundary behaviour -------------------------------------

func TestGilbertBoundaryNearZero(t *testing.T) {
	link, err := NewGilbertLink(1e-9, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	// With p ~ 0 the loss-free holding time is astronomically long; the
	// chain must answer quickly (no catch-up loop) and essentially never
	// lose. 10k samples over 10 ks of virtual time.
	losses := 0
	for i := 0; i < 10000; i++ {
		if link.Lost(float64(i)) {
			losses++
		}
	}
	if losses != 0 {
		t.Fatalf("p=1e-9: %d losses in 10k samples", losses)
	}
}

func TestGilbertBoundaryNearOne(t *testing.T) {
	const p = 0.999
	link, err := NewGilbertLink(p, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	// meanOK is 100us here, so sampling every 10ms crosses many state
	// changes per call; the loop in Lost must terminate and the observed
	// rate must still track p.
	losses := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if link.Lost(float64(i) * 0.01) {
			losses++
		}
	}
	got := float64(losses) / n
	if math.Abs(got-p) > 0.005 {
		t.Fatalf("p=%v: observed loss rate %v", p, got)
	}
}

func TestGilbertBoundaryRejects(t *testing.T) {
	for _, p := range []float64{-0.01, 1.0, 1.5, math.Inf(1)} {
		if _, err := NewGilbertLink(p, rand.New(rand.NewPCG(5, 6))); err == nil {
			t.Errorf("p=%v: expected error", p)
		}
	}
	if _, err := NewGilbertLink(math.NaN(), rand.New(rand.NewPCG(5, 6))); err == nil {
		t.Errorf("p=NaN: expected error")
	}
}

func TestGilbertSubMillisecondSampling(t *testing.T) {
	// Sampling far below the 100ms burst scale must preserve both the
	// stationary rate and the burstiness: consecutive 0.1ms samples
	// almost always share a state, so P(loss | prev loss) ~ 1.
	const p = 0.2
	link, err := NewGilbertLink(p, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2_000_000
	const dt = 1e-4
	losses, lossAfterLoss, prevLoss := 0, 0, 0
	prev := false
	for i := 0; i < n; i++ {
		lost := link.Lost(float64(i) * dt)
		if lost {
			losses++
		}
		if prev {
			prevLoss++
			if lost {
				lossAfterLoss++
			}
		}
		prev = lost
	}
	rate := float64(losses) / n
	if math.Abs(rate-p) > 0.04 {
		t.Fatalf("sub-ms sampling: loss rate %v want ~%v", rate, p)
	}
	cond := float64(lossAfterLoss) / float64(prevLoss)
	if cond < 0.99 {
		t.Fatalf("sub-ms sampling: P(loss|loss) = %v, want near 1 (bursty)", cond)
	}
}

// --- correlated cluster loss --------------------------------------------

func TestStarClusterValidation(t *testing.T) {
	cfg := DefaultStar(8, 1)
	cfg.Clusters = -1
	if _, err := NewStar(cfg); err == nil {
		t.Error("negative Clusters: expected error")
	}
	cfg = DefaultStar(8, 1)
	cfg.Clusters, cfg.PCluster = 2, 1.0
	if _, err := NewStar(cfg); err == nil {
		t.Error("PCluster=1: expected error")
	}
}

func TestStarClusterCorrelation(t *testing.T) {
	// Two users in the same cluster must lose the same packets whenever
	// the shared link bursts. Make individual links lossless so every
	// loss is attributable to source or cluster; source lossless too.
	cfg := StarConfig{N: 8, PHigh: 0, PLow: 0, PSource: 0, Seed: 42, Clusters: 2, PCluster: 0.3}
	s, err := NewStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.ClusterOf[0] != s.ClusterOf[2] || s.ClusterOf[0] == s.ClusterOf[1] {
		t.Fatalf("round-robin assignment broken: %v", s.ClusterOf)
	}
	times := make([]float64, 400)
	for i := range times {
		times[i] = float64(i) * 0.05
	}
	rd := s.MulticastRound(times)
	recv := func(u int) map[int]bool {
		m := make(map[int]bool)
		for _, i := range rd.Received(nil, u) {
			m[i] = true
		}
		return m
	}
	u0, u2 := recv(0), recv(2) // same cluster
	if len(u0) != len(u2) {
		t.Fatalf("same-cluster users diverge: %d vs %d received", len(u0), len(u2))
	}
	for i := range u0 {
		if !u2[i] {
			t.Fatalf("same-cluster users diverge on packet %d", i)
		}
	}
	if len(u0) == len(times) {
		t.Fatal("cluster link at 30% lost nothing in 400 packets")
	}
	u1 := recv(1) // other cluster: independent stream, should differ somewhere
	same := len(u0) == len(u1)
	if same {
		for i := range u0 {
			if !u1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("cross-cluster users received identical sets; streams look shared")
	}
}

func TestStarClusterDeterminism(t *testing.T) {
	cfg := DefaultStar(16, 9)
	cfg.Clusters, cfg.PCluster = 4, 0.15
	run := func() []int {
		s, err := NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, 100)
		for i := range times {
			times[i] = float64(i) * 0.01
		}
		var got []int
		for r := 0; r < 3; r++ {
			rd := s.MulticastRound(times)
			for u := 0; u < cfg.N; u++ {
				got = append(got, len(rd.Received(nil, u)))
			}
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cluster topology not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// --- DupLink ------------------------------------------------------------

func TestDupLinkRate(t *testing.T) {
	const p = 0.15
	l, err := NewDupLink(p, rand.New(rand.NewPCG(11, 12)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	extra := 0
	for i := 0; i < n; i++ {
		c := l.Copies()
		if c != 1 && c != 2 {
			t.Fatalf("Copies() = %d", c)
		}
		extra += c - 1
	}
	got := float64(extra) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("duplication rate %v want ~%v", got, p)
	}
}

func TestDupLinkRejects(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0} {
		if _, err := NewDupLink(p, rand.New(rand.NewPCG(1, 1))); err == nil {
			t.Errorf("pDup=%v: expected error", p)
		}
	}
}

// --- ReorderLink --------------------------------------------------------

func TestReorderLinkConservesAndReorders(t *testing.T) {
	l, err := NewReorderLink(0.25, 3, rand.New(rand.NewPCG(13, 14)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	seen := make(map[int]int, n)
	var order []int
	for i := 0; i < n; i++ {
		pkt := []byte(fmt.Sprintf("%d", i))
		for _, out := range l.Offer(pkt) {
			var v int
			fmt.Sscanf(string(out), "%d", &v)
			seen[v]++
			order = append(order, v)
		}
	}
	for _, out := range l.Flush() {
		var v int
		fmt.Sscanf(string(out), "%d", &v)
		seen[v]++
		order = append(order, v)
	}
	// Conservation: every packet exactly once.
	if len(order) != n {
		t.Fatalf("delivered %d packets, offered %d", len(order), n)
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("packet %d delivered %d times", i, seen[i])
		}
	}
	// Reordering actually happened, and displacement is bounded by the
	// hold depth (a packet held behind 3 others arrives at most ~4 late,
	// plus slack for early eviction cascades).
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering observed at pReorder=0.25")
	}
	for pos, v := range order {
		if d := pos - v; d < -8 || d > 8 {
			t.Fatalf("packet %d displaced by %d, beyond hold depth", v, d)
		}
	}
}

func TestReorderLinkRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := NewReorderLink(1.0, 3, rng); err == nil {
		t.Error("pReorder=1: expected error")
	}
	if _, err := NewReorderLink(0.1, 0, rng); err == nil {
		t.Error("holdFor=0: expected error")
	}
}

// --- Mangler ------------------------------------------------------------

func TestManglerDeterminism(t *testing.T) {
	cfg := MangleConfig{Loss: 0.2, Reorder: 0.2, HoldFor: 2, Dup: 0.1, Interval: 0.02}
	run := func() []string {
		m, err := NewMangler(cfg, 99)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 500; i++ {
			pkt := []byte{byte(i), byte(i >> 8)}
			for _, p := range m.Mangle(pkt) {
				out = append(out, string(p))
			}
		}
		for _, p := range m.Flush() {
			out = append(out, string(p))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestManglerLossOnly(t *testing.T) {
	m, err := NewMangler(MangleConfig{Loss: 0.3, Interval: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	delivered := 0
	for i := 0; i < n; i++ {
		delivered += len(m.Mangle([]byte{1}))
	}
	got := 1 - float64(delivered)/n
	if math.Abs(got-0.3) > 0.05 {
		t.Fatalf("mangler loss rate %v want ~0.3", got)
	}
	if got := m.Flush(); got != nil {
		t.Fatalf("Flush without reorder stage returned %d packets", len(got))
	}
}

func TestManglerNoImpairmentPassThrough(t *testing.T) {
	m, err := NewMangler(MangleConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkt := []byte("hello")
	out := m.Mangle(pkt)
	if len(out) != 1 || !bytes.Equal(out[0], pkt) {
		t.Fatalf("pass-through mangler returned %v", out)
	}
}

func TestManglerRejectsLossWithoutInterval(t *testing.T) {
	if _, err := NewMangler(MangleConfig{Loss: 0.1}, 1); err == nil {
		t.Error("Loss without Interval: expected error")
	}
}
