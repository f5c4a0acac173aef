// Package netsim simulates the multicast delivery network the paper
// evaluates on: a star topology in which the key server reaches a
// loss-free backbone through one source link and every user hangs off
// the backbone behind its own receiver link. Each link is a two-state
// continuous-time Markov chain (a Gilbert model) producing bursty loss;
// a multicast packet is lost by a user if it is lost on the source link
// or on that user's receiver link at its send time.
//
// The simulation is deterministic for a given seed: every link owns an
// independent random stream, so per-user work can be distributed across
// goroutines without perturbing results.
package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// GilbertLink is a two-state continuous-time Markov loss process.
//
// The paper specifies a mean burst-loss duration and a mean loss-free
// duration of "100/p ms" and "100/(1-p) ms"; taken literally those means
// put the chain in the loss state a fraction 1-p of the time, which
// contradicts p being the loss rate (an apparent typo). We keep the
// stationary loss fraction equal to p and burst durations on the order
// of the paper's 100 ms: mean burst 100 ms, mean loss-free
// 100*(1-p)/p ms. Holding times are exponential.
type GilbertLink struct {
	rng      *rand.Rand
	p        float64
	meanLoss float64 // seconds
	meanOK   float64 // seconds
	lossy    bool
	until    float64 // time at which the current state ends
	now      float64
}

// BurstMean is the mean loss-burst duration in seconds.
const BurstMean = 0.100

// NewGilbertLink returns a link with loss rate p in [0,1), using the
// given random stream. The chain starts in its stationary distribution.
func NewGilbertLink(p float64, rng *rand.Rand) (*GilbertLink, error) {
	if math.IsNaN(p) || p < 0 || p >= 1 {
		return nil, fmt.Errorf("netsim: loss rate %v outside [0,1)", p)
	}
	l := &GilbertLink{rng: rng, p: p, meanLoss: BurstMean}
	if p == 0 {
		return l, nil
	}
	l.meanOK = BurstMean * (1 - p) / p
	l.lossy = rng.Float64() < p
	l.until = l.holding()
	return l, nil
}

// holding samples an exponential holding time for the current state.
func (l *GilbertLink) holding() float64 {
	mean := l.meanOK
	if l.lossy {
		mean = l.meanLoss
	}
	return l.rng.ExpFloat64() * mean
}

// Lost advances the chain to time t (seconds, non-decreasing across
// calls) and reports whether a packet crossing the link at t is lost.
func (l *GilbertLink) Lost(t float64) bool {
	if l.p == 0 {
		return false
	}
	if t < l.now {
		// Callers must present non-decreasing times; clamping keeps the
		// chain consistent if two packets share a timestamp.
		t = l.now
	}
	l.now = t
	for l.until <= t {
		l.lossy = !l.lossy
		l.until += l.holding()
	}
	return l.lossy
}

// LossRate returns the configured stationary loss rate.
func (l *GilbertLink) LossRate() float64 { return l.p }

// StarConfig describes the paper's evaluation topology, optionally
// extended with correlated loss: users partitioned into clusters that
// share one aggregation link each, so a burst on a cluster link claims
// the same packets for every user behind it (a regional outage), on top
// of -- and composable with -- their independent Gilbert receiver links.
type StarConfig struct {
	N       int     // number of users
	Alpha   float64 // fraction of users behind high-loss links
	PHigh   float64 // receiver-link loss rate for the high-loss fraction
	PLow    float64 // receiver-link loss rate for the rest
	PSource float64 // source-link loss rate
	Seed    uint64  // master seed; per-link streams derive from it
	// Clusters, when > 0, partitions users round-robin into this many
	// clusters, each behind a shared Gilbert aggregation link with loss
	// rate PCluster. Zero disables correlated loss (the paper's setup).
	Clusters int
	PCluster float64
}

// DefaultStar returns the paper's default parameters for N users:
// alpha=20% of users at 20% loss, the rest at 2%, source link at 1%.
func DefaultStar(n int, seed uint64) StarConfig {
	return StarConfig{N: n, Alpha: 0.20, PHigh: 0.20, PLow: 0.02, PSource: 0.01, Seed: seed}
}

// Star is an instantiated topology.
type Star struct {
	cfg    StarConfig
	Source *GilbertLink
	Recv   []*GilbertLink
	// HighLoss reports which users sit behind high-loss links.
	HighLoss []bool
	// Cluster holds the shared aggregation links (empty when correlated
	// loss is disabled); ClusterOf maps each user to its cluster.
	Cluster   []*GilbertLink
	ClusterOf []int
}

// NewStar builds the topology. Which users are high-loss is a uniform
// pseudo-random choice of ceil(alpha*N) users derived from the seed.
func NewStar(cfg StarConfig) (*Star, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("netsim: N = %d", cfg.N)
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("netsim: alpha = %v outside [0,1]", cfg.Alpha)
	}
	for _, p := range []float64{cfg.PHigh, cfg.PLow, cfg.PSource, cfg.PCluster} {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("netsim: loss rate %v outside [0,1)", p)
		}
	}
	if cfg.Clusters < 0 {
		return nil, fmt.Errorf("netsim: Clusters = %d", cfg.Clusters)
	}
	s := &Star{cfg: cfg, Recv: make([]*GilbertLink, cfg.N), HighLoss: make([]bool, cfg.N)}
	src, err := NewGilbertLink(cfg.PSource, rand.New(rand.NewPCG(cfg.Seed, 0xA11CE)))
	if err != nil {
		return nil, err
	}
	s.Source = src

	nHigh := int(math.Ceil(cfg.Alpha * float64(cfg.N)))
	pick := rand.New(rand.NewPCG(cfg.Seed, 0xB0B))
	for _, idx := range pick.Perm(cfg.N)[:nHigh] {
		s.HighLoss[idx] = true
	}
	for u := 0; u < cfg.N; u++ {
		p := cfg.PLow
		if s.HighLoss[u] {
			p = cfg.PHigh
		}
		link, err := NewGilbertLink(p, rand.New(rand.NewPCG(cfg.Seed, 0xC0FFEE+uint64(u))))
		if err != nil {
			return nil, err
		}
		s.Recv[u] = link
	}
	if cfg.Clusters > 0 {
		s.Cluster = make([]*GilbertLink, cfg.Clusters)
		for c := range s.Cluster {
			link, err := NewGilbertLink(cfg.PCluster, rand.New(rand.NewPCG(cfg.Seed, 0xC1A5+uint64(c))))
			if err != nil {
				return nil, err
			}
			s.Cluster[c] = link
		}
		s.ClusterOf = make([]int, cfg.N)
		for u := range s.ClusterOf {
			s.ClusterOf[u] = u % cfg.Clusters
		}
	}
	return s, nil
}

// N returns the number of users.
func (s *Star) N() int { return s.cfg.N }

// MulticastRound evaluates one round of multicast sends. times[i] is the
// send time of packet i; the returned function recv(u, i) reports
// whether user u received packet i. Source-link outcomes are computed
// once; receiver outcomes are computed lazily per user in a single
// forward pass, so callers may fan users out across goroutines (each
// user touches only its own link).
func (s *Star) MulticastRound(times []float64) *RoundDelivery {
	srcLost := make([]bool, len(times))
	for i, t := range times {
		srcLost[i] = s.Source.Lost(t)
	}
	// Cluster-link outcomes are shared state, so like the source link they
	// are computed once up front; per-user fan-out then stays data-race
	// free and deterministic regardless of evaluation order.
	var cluLost [][]bool
	if len(s.Cluster) > 0 {
		cluLost = make([][]bool, len(s.Cluster))
		for c, link := range s.Cluster {
			cluLost[c] = make([]bool, len(times))
			for i, t := range times {
				cluLost[c][i] = link.Lost(t)
			}
		}
	}
	return &RoundDelivery{star: s, times: times, srcLost: srcLost, cluLost: cluLost}
}

// RoundDelivery is the outcome of one multicast round on the source link
// plus per-user lazy evaluation of receiver links.
type RoundDelivery struct {
	star    *Star
	times   []float64
	srcLost []bool
	cluLost [][]bool // per cluster, per packet; nil without clusters
}

// Received appends to dst the indices of the round's packets that user
// u received and returns the extended slice, so a caller can reuse one
// buffer across users. It must be called exactly once per user per
// round (it advances the user's link state); calls for distinct users
// may run concurrently.
func (rd *RoundDelivery) Received(dst []int, u int) []int {
	link := rd.star.Recv[u]
	var clu []bool
	if rd.cluLost != nil {
		clu = rd.cluLost[rd.star.ClusterOf[u]]
	}
	for i, t := range rd.times {
		if rd.srcLost[i] {
			continue
		}
		if clu != nil && clu[i] {
			continue
		}
		if !link.Lost(t) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Unicast reports whether a single packet sent to user u at time t is
// delivered (crossing source, cluster and receiver links).
func (s *Star) Unicast(u int, t float64) bool {
	if s.Source.Lost(t) {
		return false
	}
	if len(s.Cluster) > 0 && s.Cluster[s.ClusterOf[u]].Lost(t) {
		return false
	}
	return !s.Recv[u].Lost(t)
}
