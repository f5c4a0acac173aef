// Package protocol is the server half of the rekey transport protocol
// (Figures 2, 3, 11 and 22 of the protocol paper): Session, the key
// server's one state machine for it.
//
// For each rekey message the Session multicasts the message's ENC
// packets plus ceil((rho-1)*k) proactive PARITY packets per block,
// interleaved across blocks. At each round's end it has taken the
// round's NACK datagrams, each carrying the number of parity packets a
// user still needs per block, and either multicasts amax[i] fresh parity
// packets per block or -- after MaxMulticastRounds rounds -- switches to
// unicasting small USR packets, each user's copies escalating with the
// waves that served it. It keeps the message's account, an Outcome, and
// carries rho (Fig. 11) and the NACK target from one message to the
// next. It does no I/O: package udptrans drives it over sockets, package
// vsim over a simulated network to real members. EncodeBlocks serves
// the send path.
package protocol

import (
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/tuning"
)

// RoundCap bounds a message's multicast rounds. It is also what a round
// budget of 0 means: multicast until a round draws no NACK.
const RoundCap = 64

// Step is what a Session's driver does next.
type Step int

const (
	Multicast Step = iota // send Refs to every user, then feed the round's NACKs
	Unicast               // send Copies(user) of each Waiting user's USR packet, then feed the wave's NACKs
	Done                  // the last round or wave drew no NACK
	GiveUp                // the wave budget ran out with users still waiting
)

// Outcome is one rekey message's account, as its Session decided it: the
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

// Session is the key server's transport (Figs. 2, 3, 11 and 22). Across
// rekey messages it carries rho, which AdjustRho moves after round one
// when Tuning.AdaptiveRho is set, and the NACK target, which follows the
// deadline misses when Tuning.AdaptNumNACK is. Within one it decides
// which shards each multicast round sends, which users each unicast wave
// serves with how many copies, and when to stop. It does no I/O and
// reads no clock. A driver opens each message with Open, sends Refs or
// each Waiting user's Copies, hands the round's or wave's NACK datagrams
// to NACK, ends it with Next and the message with Close, and reads the
// account off Outcome. The Session emits the rho gauge, the RoundStart,
// RhoAdjusted and SwitchToUnicast events and the NACKs of every round
// and wave.
type Session struct {
	tun     tuning.Tuning
	reg     *obs.Registry
	rng     *rand.Rand // AdjustRho's decrease draw
	rho     float64
	numNACK int

	// The open message; Open resets what it reuses.
	msgID       uint8
	k, maxWaves int
	step        Step
	out         *Outcome
	refs        []blockplan.Ref
	next        []int // the parity cursor: parity packets sent so far, per block
	// The round or wave in progress: each block's and each NACK's
	// largest request, and who NACKed.
	amax, demand []int
	seen         map[int]bool
	waiting      map[int]bool // who NACKed the last round or wave to end
	served       map[int]int  // the unicast waves that served each user
}

// NewSession starts at a valid tun's rho0 and NACK target; seed seeds
// AdjustRho's draws, and reg may be nil.
func NewSession(tun tuning.Tuning, seed uint64, reg *obs.Registry) *Session {
	reg.Set(obs.GRho, tun.InitialRho)
	return &Session{tun: tun, reg: reg, rng: rand.New(rand.NewPCG(seed, 0x5e55)), rho: tun.InitialRho, numNACK: tun.NumNACK,
		seen: make(map[int]bool), waiting: make(map[int]bool), served: make(map[int]int)}
}

// Rho returns the proactivity factor the next message opens with.
func (s *Session) Rho() float64 { return s.rho }

// NumNACK returns the current round-one NACK target.
func (s *Session) NumNACK() int { return s.numNACK }

// Open starts message msgID, partitioned as part, at the current rho
// and with at most maxWaves unicast waves. Refs then holds round one: k
// data and ceil((rho-1)*k) proactive parity shards a block.
func (s *Session) Open(part blockplan.Partition, msgID uint8, maxWaves int) {
	blocks := part.NumBlocks()
	s.msgID, s.k, s.maxWaves, s.step, s.out = msgID, part.K, maxWaves, Multicast, &Outcome{Rounds: 1}
	s.next, s.amax, s.demand = slices.Grow(s.next[:0], blocks)[:blocks], slices.Grow(s.amax[:0], blocks)[:blocks], s.demand[:0]
	clear(s.next)
	clear(s.seen)
	clear(s.waiting)
	clear(s.served)
	for b := range s.amax {
		s.amax[b] = blockplan.ProactiveParity(part.K, s.rho)
	}
	s.layout(part.K, s.amax)
	clear(s.amax)
	s.roundStart()
}

// layout sets Refs to the first data shards of every block and then
// parity[b] fresh parity shards of block b -- fewer once the block runs
// out of parity indices -- interleaved across blocks.
func (s *Session) layout(data int, parity []int) {
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

func (s *Session) roundStart() {
	s.reg.Emit(obs.Event{Kind: obs.EvRoundStart, MsgID: s.msgID, Round: s.out.Rounds, Value: float64(len(s.refs))})
}

// Outcome returns the open message's account so far; its Rounds and
// UnicastWaves are the multicast rounds and unicast waves begun. Each
// message has its own.
func (s *Session) Outcome() *Outcome { return s.out }

// Refs returns the current multicast round's shards in send order,
// valid until Next.
func (s *Session) Refs() []blockplan.Ref { return s.refs }

// Copies returns how many copies of a Waiting user's USR packet the
// current wave sends (Fig. 22): 2 the first time a wave serves the user,
// one more each later time.
func (s *Session) Copies(user int) int { return s.served[user] + 1 }

// Waiting returns who NACKed the last round or wave, valid until Next;
// nil before one ends.
func (s *Session) Waiting() map[int]bool {
	if len(s.out.NACKsPerRound) == 0 {
		return nil
	}
	return s.waiting
}

// NACK takes one NACK datagram of the current round or wave from user,
// the driver's name for its sender, and reads the requests where they
// lie: type and message ID in byte 0, the user's node ID in bytes 1-2,
// then (count, block) pairs. A request counts for at most k -- no user
// is short more -- and none outside the message. It returns the largest
// request, or ok = false for what counts for nothing: bytes that are no
// NACK of the open message, a body of odd length, or a user's second
// NACK of a round.
func (s *Session) NACK(user int, raw []byte) (demand int, ok bool) {
	if len(raw) < 3 || len(raw)%2 == 0 || raw[0] != byte(packet.TypeNACK)<<6|s.msgID || s.seen[user] {
		return 0, false
	}
	s.seen[user] = true
	for i := 3; i < len(raw); i += 2 {
		c, b := min(int(raw[i]), s.k), int(raw[i+1])
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
// Round one's end first moves rho, while the round's demand is there.
func (s *Session) Next() Step {
	s.reg.Observe(obs.HNACKsPerRound, float64(len(s.seen)))
	if s.step == Multicast && s.out.Rounds == 1 && s.tun.AdaptiveRho {
		if rho := AdjustRho(s.rho, s.k, s.numNACK, s.demand, s.rng); rho != s.rho {
			s.rho = rho
			s.reg.Emit(obs.Event{Kind: obs.EvRhoAdjusted, MsgID: s.msgID, Value: rho})
		}
		s.reg.Set(obs.GRho, s.rho)
	}
	s.out.NACKsPerRound = append(s.out.NACKsPerRound, len(s.seen))
	s.waiting, s.seen = s.seen, s.waiting
	clear(s.seen)
	maxRounds := s.tun.MaxMulticastRounds
	if maxRounds <= 0 || maxRounds > RoundCap {
		maxRounds = RoundCap
	}
	switch {
	case len(s.waiting) == 0:
		s.step = Done
	case s.step == Multicast && s.out.Rounds < maxRounds:
		s.out.Rounds++
		s.layout(0, s.amax)
		s.roundStart()
	case s.out.UnicastWaves >= s.maxWaves:
		s.step = GiveUp
	default:
		s.step = Unicast
		s.out.UnicastWaves++
		for u := range s.waiting {
			s.served[u]++
			s.out.UsrSent += s.Copies(u)
		}
		if s.out.UnicastWaves == 1 {
			s.reg.Emit(obs.Event{Kind: obs.EvSwitchToUnicast, MsgID: s.msgID, Round: s.out.Rounds, Value: float64(len(s.waiting))})
		}
	}
	clear(s.amax)
	s.demand = s.demand[:0]
	return s.step
}

// Close ends the open message once Next has said Done or GiveUp, and
// returns its deadline misses: who NACKed the multicast round that hit
// Tuning.MaxMulticastRounds, the deadline -- the members the server can
// see were not keyed by it; 0 without a deadline. No miss raises the
// NACK target by one, up to MaxNACK; any lowers it by as many.
func (s *Session) Close() (missed int) {
	if out := s.out; out.Rounds == s.tun.MaxMulticastRounds {
		missed = out.NACKsPerRound[out.Rounds-1]
	}
	switch {
	case !s.tun.AdaptNumNACK:
	case missed == 0:
		s.numNACK = min(s.numNACK+1, s.tun.MaxNACK)
	default:
		s.numNACK = max(s.numNACK-missed, 0)
	}
	return missed
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
