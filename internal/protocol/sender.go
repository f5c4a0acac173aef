// Package protocol is the server half of the rekey transport protocol
// (Figures 2, 3, 11 and 22 of the protocol paper): Sender, the key
// server's state machine for one rekey message, and Session, what the
// server carries from one message to the next -- rho, which AdjustRho
// moves, and the NACK target.
//
// For each rekey message the Sender multicasts the message's ENC packets
// plus ceil((rho-1)*k) proactive PARITY packets per block, interleaved
// across blocks. At each round's end it takes the round's NACKs, each
// carrying the number of parity packets a user still needs per block,
// and either multicasts amax[i] fresh parity packets per block or --
// after MaxMulticastRounds rounds -- switches to unicasting small USR
// packets, each user's copies escalating with the waves that served it.
// It keeps the message's account, an Outcome. Neither type does I/O:
// package udptrans drives them over sockets, package vsim over a
// simulated network to real members. EncodeBlocks serves the send path.
package protocol

import (
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/packet"
)

// RoundCap bounds a message's multicast rounds. It is also what a round
// budget of 0 means: multicast until a round draws no NACK.
const RoundCap = 64

// Step is what a Sender's driver does next.
type Step int

const (
	Multicast Step = iota // send Refs to every user, then feed the round's NACKs
	Unicast               // send Copies(user) of each Waiting user's USR packet, then feed the wave's NACKs
	Done                  // the last round or wave drew no NACK
	GiveUp                // the wave budget ran out with users still waiting
)

// Outcome is one rekey message's account, as its Sender decided it: the
// multicast rounds and unicast waves begun, the datagrams listed for
// them -- ENC (last-block duplicates included), PARITY and USR (every
// copy) -- and the NACKs each round, then each wave, took.
type Outcome struct {
	EncSent       int
	ParitySent    int
	UsrSent       int
	Rounds        int
	UnicastWaves  int
	NACKsPerRound []int
}

// Sender is the server half of the transport for one rekey message
// (Figs. 2, 3 and 22): which shards each multicast round sends, which
// users each unicast wave serves with how many copies, and when to
// stop. It does no I/O and reads no clock. A driver sends what it says,
// feeds it the round's NACKs through NACK and ends the round with its
// Session's Next.
type Sender struct {
	k, maxRounds, maxWaves int
	step                   Step
	out                    Outcome
	refs                   []blockplan.Ref
	next                   []int // the parity cursor: parity packets sent so far, per block
	// The round or wave in progress: each block's and each NACK's
	// largest request, and who NACKed.
	amax, demand []int
	seen         map[int]bool
	waiting      map[int]bool // who NACKed the last round or wave to end
	served       map[int]int  // the unicast waves that served each user
}

// NewSender starts the transport of a message partitioned as part, with
// proactivity factor rho, at most maxRounds multicast rounds (0 means
// RoundCap) and at most maxWaves unicast waves. Refs holds round one:
// k data and ceil((rho-1)*k) proactive parity shards a block.
func NewSender(part blockplan.Partition, rho float64, maxRounds, maxWaves int) *Sender {
	if maxRounds <= 0 || maxRounds > RoundCap {
		maxRounds = RoundCap
	}
	blocks := part.NumBlocks()
	s := &Sender{k: part.K, maxRounds: maxRounds, maxWaves: maxWaves, out: Outcome{Rounds: 1},
		next: make([]int, blocks), amax: make([]int, blocks), seen: make(map[int]bool), served: make(map[int]int)}
	for b := range s.amax {
		s.amax[b] = blockplan.ProactiveParity(part.K, rho)
	}
	s.layout(part.K, s.amax)
	clear(s.amax)
	return s
}

// layout sets Refs to the first data shards of every block and then
// parity[b] fresh parity shards of block b -- fewer once the block runs
// out of parity indices -- interleaved across blocks.
func (s *Sender) layout(data int, parity []int) {
	perBlock := make([][]int, len(s.next))
	for b, want := range parity {
		for sh := 0; sh < data; sh++ {
			perBlock[b] = append(perBlock[b], sh)
		}
		for n := min(want, fec.MaxShards-s.k-s.next[b]); n > 0; n-- {
			perBlock[b] = append(perBlock[b], s.k+s.next[b])
			s.next[b]++
			s.out.ParitySent++
		}
	}
	s.out.EncSent += data * len(parity)
	s.refs = blockplan.Interleave(perBlock)
}

// Outcome returns the message's account so far; its Rounds and
// UnicastWaves are the multicast rounds and unicast waves begun.
func (s *Sender) Outcome() *Outcome { return &s.out }

// Refs returns the current multicast round's shards in send order.
func (s *Sender) Refs() []blockplan.Ref { return s.refs }

// Copies returns how many copies of a Waiting user's USR packet the
// current wave sends (Fig. 22): 2 the first time a wave serves the user,
// one more each later time.
func (s *Sender) Copies(user int) int { return s.served[user] + 1 }

// NACKs returns how many NACKs the current round or wave has taken.
func (s *Sender) NACKs() int { return len(s.seen) }

// Amax returns each block's largest request of the current round.
func (s *Sender) Amax() []int { return s.amax }

// Waiting returns who NACKed the last round or wave; nil before one ends.
func (s *Sender) Waiting() map[int]bool { return s.waiting }

// NACK takes user's NACK of the current round or wave. A request counts
// for at most k -- no user is short more -- and none outside the message.
// It returns the largest request, or ok = false for a user's second NACK
// of a round, which counts for nothing.
func (s *Sender) NACK(user int, reqs []packet.BlockRequest) (demand int, ok bool) {
	if s.seen[user] {
		return 0, false
	}
	s.seen[user] = true
	for _, r := range reqs {
		c, b := min(int(r.Count), s.k), int(r.BlockID)
		if b < len(s.amax) && c > s.amax[b] {
			s.amax[b] = c
		}
		demand = max(demand, c)
	}
	s.demand = append(s.demand, demand)
	return demand, true
}

// Next ends the current round or wave and returns the next step: done
// without NACKs, else another round (amax fresh parity a block) within
// the round budget, else the next unicast wave within the wave budget.
func (s *Sender) Next() Step {
	s.out.NACKsPerRound = append(s.out.NACKsPerRound, len(s.seen))
	s.waiting, s.seen = s.seen, make(map[int]bool)
	switch {
	case len(s.waiting) == 0:
		s.step = Done
	case s.step == Multicast && s.out.Rounds < s.maxRounds:
		s.out.Rounds++
		s.layout(0, s.amax)
	case s.out.UnicastWaves >= s.maxWaves:
		s.step = GiveUp
	default:
		s.step = Unicast
		s.out.UnicastWaves++
		for u := range s.waiting {
			s.served[u]++
			s.out.UsrSent += s.Copies(u)
		}
	}
	clear(s.amax)
	s.demand = nil
	return s.step
}

// AdjustRho (Fig. 11) returns the next message's rho from this one's,
// the block size, the NACK target and round one's demand: each NACK's
// largest request. Over target, rho grows by the (target+1)-th largest
// request; under it, it falls by 1/k with probability
// (target - 2*NACKs)/target, drawn from rng, but never below 1: below it
// round one sends no proactive parity anyway, and a rho0 set below 1
// stays where it is.
func AdjustRho(rho float64, k, target int, demand []int, rng *rand.Rand) float64 {
	switch {
	case len(demand) > target:
		d := slices.Clone(demand)
		slices.Sort(d)
		add := d[len(d)-1-target] // the (target+1)-th largest request
		return (float64(add) + math.Ceil(float64(k)*rho-1e-9)) / float64(k)
	case len(demand) < target:
		prob := math.Max(0, float64(target-len(demand)*2)/float64(target))
		if rng.Float64() < prob && rho > 1 {
			return max(1, math.Ceil(float64(k)*rho-1-1e-9)/float64(k))
		}
	}
	return rho
}
