package protocol

import (
	"math/rand/v2"

	"repro/internal/blockplan"
	"repro/internal/obs"
	"repro/internal/tuning"
)

// Session is what the key server carries from one rekey message to the
// next: rho, which AdjustRho moves after round one when
// Tuning.AdaptiveRho is set (Fig. 11), and the NACK target, which
// follows the deadline misses when Tuning.AdaptNumNACK is. It does no
// I/O and reads no clock. A transport opens each message with Open, ends
// each round or wave with Next and the message with Close, and reads
// the message's account off its Sender's Outcome; the Session emits the
// rho gauge, the RoundStart, RhoAdjusted and SwitchToUnicast events and
// the NACKs of every round and wave.
type Session struct {
	tun     tuning.Tuning
	reg     *obs.Registry
	rng     *rand.Rand // AdjustRho's decrease draw
	rho     float64
	numNACK int
	snd     *Sender // the open message's
	msgID   uint8
}

// NewSession starts at a valid tun's rho0 and NACK target; seed seeds
// AdjustRho's draws, and reg may be nil.
func NewSession(tun tuning.Tuning, seed uint64, reg *obs.Registry) *Session {
	reg.Set(obs.GRho, tun.InitialRho)
	return &Session{tun: tun, reg: reg, rng: rand.New(rand.NewPCG(seed, 0x5e55)), rho: tun.InitialRho, numNACK: tun.NumNACK}
}

// Rho returns the proactivity factor the next message opens with.
func (s *Session) Rho() float64 { return s.rho }

// NumNACK returns the current round-one NACK target.
func (s *Session) NumNACK() int { return s.numNACK }

// Open starts message msgID, partitioned as part, at the current rho
// and with at most maxWaves unicast waves, and returns its Sender.
func (s *Session) Open(part blockplan.Partition, msgID uint8, maxWaves int) *Sender {
	s.snd, s.msgID = NewSender(part, s.rho, s.tun.MaxMulticastRounds, maxWaves), msgID
	s.roundStart()
	return s.snd
}

func (s *Session) roundStart() {
	s.reg.Emit(obs.Event{Kind: obs.EvRoundStart, MsgID: s.msgID, Round: s.snd.out.Rounds, Value: float64(len(s.snd.refs))})
}

// Next ends the open message's round or wave as Sender.Next does, first
// moving rho at round one's end, while the round's demand is there.
func (s *Session) Next() Step {
	snd := s.snd
	s.reg.Observe(obs.HNACKsPerRound, float64(snd.NACKs()))
	if snd.step == Multicast && snd.out.Rounds == 1 && s.tun.AdaptiveRho {
		if rho := AdjustRho(s.rho, snd.k, s.numNACK, snd.demand, s.rng); rho != s.rho {
			s.rho = rho
			s.reg.Emit(obs.Event{Kind: obs.EvRhoAdjusted, MsgID: s.msgID, Value: rho})
		}
		s.reg.Set(obs.GRho, s.rho)
	}
	step := snd.Next()
	switch {
	case step == Multicast:
		s.roundStart()
	case step == Unicast && snd.out.UnicastWaves == 1:
		s.reg.Emit(obs.Event{Kind: obs.EvSwitchToUnicast, MsgID: s.msgID, Round: snd.out.Rounds, Value: float64(len(snd.waiting))})
	}
	return step
}

// Close ends the open message once its Sender is Done or has given up,
// and returns its deadline misses: who NACKed the multicast round that
// hit Tuning.MaxMulticastRounds, the deadline -- the members the server
// can see were not keyed by it; 0 without a deadline. No miss raises the
// NACK target by one, up to MaxNACK; any lowers it by as many.
func (s *Session) Close() (missed int) {
	if out := &s.snd.out; out.Rounds == s.tun.MaxMulticastRounds {
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
