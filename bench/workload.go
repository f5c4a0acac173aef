package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	rekey "repro"
	"repro/internal/keys"
)

// spec is one workload, at the sizes BENCHMARK.json's numbers are
// measured at.
type spec struct {
	name, why string
	// wire workloads run udptrans over loopback to real clients; the
	// others stop at the materialised datagrams.
	wire bool
	// n is the group size when the measured loop starts. Every interval
	// moves n/4 members: replace joins and leaves n/4 each, swing
	// alternates n/4 joins with n/4 leaves.
	n      int
	swing  bool
	signed bool
	// rho is the proactivity factor: tuning.InitialRho on the wire, the
	// factor parity is precomputed for in build_*.
	rho   float64
	lossy bool
	// intervals is the measured interval count when -seconds is 0.
	intervals int
	// Wire timing: how long the server listens for NACKs after a round,
	// and how long a member's socket must stay quiet before it NACKs.
	roundDur, quietGap time.Duration
}

const (
	warmupIntervals = 3
	sampleSize      = 64 // members whose keys are checked against Server.PathKeys
	retainedLeavers = 16 // departed members fed the post-leave message
	usrShare        = 0.01
	// Wire timing. With QuietGap at its 60 ms default a thousand
	// co-located receivers starve on two cores and NACK loss-free
	// intervals; see README.md "Spurious NACKs". The N=64 miniatures of
	// bench_test.go have no such crowd and shorten both.
	roundDur = 300 * time.Millisecond
	quietGap = 150 * time.Millisecond
	// The paper's receiver population: a share alpha of members behind
	// high-loss links.
	lossAlpha, lossHigh, lossLow = 0.20, 0.20, 0.02
)

func workloads() []spec {
	return []spec{
		{name: "wire_clean", wire: true, n: 1024, rho: 1.0, intervals: 60, roundDur: roundDur, quietGap: quietGap,
			why: "unsigned, no loss: the fan-out send loop and direct-receive Ingest do all the work; FEC, auth, NACK rounds and unicast do none"},
		{name: "wire_lossy", wire: true, n: 1024, rho: 1.0, signed: true, lossy: true, intervals: 30, roundDur: roundDur, quietGap: quietGap,
			why: "signed, Gilbert loss at every member: NACK rounds, round-2 parity, FEC decode, proof checks and the unicast phase do the work"},
		{name: "build_16k", n: 16384, rho: 1.6, signed: true, intervals: 300,
			why: "no sockets, N=16384, J=L=4096, signed: key tree, assignment, marshalling and auth building dominate; transport and members idle"},
		{name: "build_swing", n: 4096, rho: 1.6, swing: true, intervals: 1000,
			why: "no sockets, unsigned, group swings 4096<->5120: join-only node splitting and leave-only pruning instead of the replace path"},
	}
}

func findWorkload(name string) (spec, error) {
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want wire_clean, wire_lossy, build_16k or build_swing)", name)
}

// churn returns the joins and leaves of interval i (0-based, warm-up
// included).
func (s *spec) churn(i int) (joins, leaves int) {
	q := s.n / 4
	if q < 1 {
		q = 1
	}
	if !s.swing {
		return q, q
	}
	if i%2 == 0 {
		return q, 0
	}
	return 0, q
}

// fds is how many descriptors the workload holds at its peak: every
// member, the joiners bound before the leavers are closed, and slack.
func (s *spec) fds() int {
	if !s.wire {
		return 64
	}
	return s.n + s.n/4 + 64
}

func (s *spec) tuning() rekey.Tuning {
	t := rekey.DefaultTuning() // k=10, d=4, unicast after 2 multicast rounds
	t.InitialRho = s.rho
	return t
}

// Every PRNG of a run derives from -seed; the lanes keep the streams of
// churn, loss and sampling independent of one another.
const (
	laneChurn = iota + 1
	laneSample
	laneUSR
	laneLoss
)

func newRand(seed uint64, lane uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, lane))
}

// keySeed derives the server's (and the mirror tree's) key seed; it
// must be non-zero, zero meaning "use the CSPRNG".
func keySeed(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 | 1 }

// churnPlan draws one interval's leavers uniformly from the live
// members, removing them from live, and names the joiners.
type churnPlan struct {
	joins, leaves []rekey.MemberID
}

type roster struct {
	live   []rekey.MemberID
	nextID rekey.MemberID
	rng    *rand.Rand
}

func newRoster(n int, seed uint64) *roster {
	r := &roster{rng: newRand(seed, laneChurn), nextID: 1}
	for i := 0; i < n; i++ {
		r.live = append(r.live, r.nextID)
		r.nextID++
	}
	return r
}

// draw picks the interval's batch. forced members (ones that lost the
// group key for good) leave first so they cannot fail every later
// interval as well.
func (r *roster) draw(joins, leaves int, forced []rekey.MemberID) churnPlan {
	var p churnPlan
	for _, f := range forced {
		for i, m := range r.live {
			if m == f && len(p.leaves) < leaves {
				r.live[i] = r.live[len(r.live)-1]
				r.live = r.live[:len(r.live)-1]
				p.leaves = append(p.leaves, m)
				break
			}
		}
	}
	for len(p.leaves) < leaves && len(r.live) > 1 {
		i := r.rng.IntN(len(r.live))
		p.leaves = append(p.leaves, r.live[i])
		r.live[i] = r.live[len(r.live)-1]
		r.live = r.live[:len(r.live)-1]
	}
	for j := 0; j < joins; j++ {
		p.joins = append(p.joins, r.nextID)
		r.live = append(r.live, r.nextID)
		r.nextID++
	}
	return p
}

// firstBatch joins the whole roster in one batch: the group's first
// rekey message, which hands every member all of its keys.
func firstBatch(ks *rekey.Server, r *roster) (churnPlan, *rekey.RekeyMessage, error) {
	plan := churnPlan{joins: append([]rekey.MemberID(nil), r.live...)}
	for _, id := range plan.joins {
		if err := ks.QueueJoin(id); err != nil {
			return plan, nil, err
		}
	}
	rm, err := ks.Rekey()
	return plan, rm, err
}

// pickSample draws the seeded sample of members whose keys the checks
// follow (and, traced, whose arrivals the shadows replay).
func pickSample(seed uint64, ids []rekey.MemberID) map[rekey.MemberID]bool {
	picks := newRand(seed, laneSample).Perm(len(ids))
	sampled := make(map[rekey.MemberID]bool, sampleSize)
	for _, i := range picks[:min(sampleSize, len(picks))] {
		sampled[ids[i]] = true
	}
	return sampled
}

// newSigner generates the RSA-2048 interval signer of a signed
// workload. It is harness work, not the system's (a real key server
// loads its key), and prime search takes anywhere from 50 ms to a
// second, so it runs once per process outside the timed set-up.
func newSigner(s *spec) (*keys.Signer, error) {
	if !s.signed {
		return nil, nil
	}
	return keys.NewSigner(2048)
}

func serverOptions(s *spec, seed uint64, signer *keys.Signer) []rekey.Option {
	opts := []rekey.Option{rekey.WithTuning(s.tuning()), rekey.WithKeySeed(keySeed(seed))}
	if signer != nil {
		opts = append(opts, rekey.WithSigner(signer))
	}
	return opts
}
