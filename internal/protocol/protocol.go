// Package protocol is the rekey transport protocol (Figures 2, 3, 11,
// 22, 26 and 27 of the protocol paper): Sender, the key server's state
// machine for one rekey message, and Session, which drives it over a
// simulated multicast network.
//
// For each rekey message the Sender multicasts the message's ENC packets
// plus ceil((rho-1)*k) proactive PARITY packets per block, interleaved
// across blocks. At each round's end it takes the round's NACKs, each
// carrying the number of parity packets a user still needs per block,
// and either multicasts amax[i] fresh parity packets per block or --
// after MaxMulticastRounds rounds -- switches to unicasting small USR
// packets with escalating duplication. The Sender does no I/O: package
// udptrans drives it over sockets, Session over netsim.
//
// Session adds what carries across messages: the proactivity factor rho
// adapts so the first-round NACK count tracks a target (AdjustRho, Fig.
// 11), the target itself adapts to deadline misses, and early unicast
// switches as soon as unicasting would be cheaper.
//
// Session tracks packet bookkeeping rather than ciphertext bytes:
// which shards each user received determines recoverability exactly
// (the MDS property of the FEC code), so bandwidth, NACK, latency and
// deadline metrics are identical to a byte-level run at a fraction of
// the cost. Byte-level operation is exercised by the fec, packet and
// assign packages and the UDP transport.
package protocol

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"repro/internal/assign"
	"repro/internal/blockplan"
	"repro/internal/keytree"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/tuning"
)

// Config holds the transport protocol parameters. The shared knobs
// (k, degree, rho0, NACK targets, round budget, workers) come from the
// embedded tuning core -- the same struct rekey.Config embeds -- so
// they are defined and validated in exactly one place; the fields
// declared here are simulation-specific. DefaultConfig returns the
// paper's defaults.
type Config struct {
	// Tuning is the shared knob core; see package tuning. The session
	// reads Degree only through each Message's TreeDegree.
	tuning.Tuning
	// AdaptiveRho enables the AdjustRho algorithm; when false, rho stays
	// at InitialRho for every message.
	AdaptiveRho bool
	// AdaptNumNACK enables deadline-driven adaptation of NumNACK
	// (requires DeadlineRounds > 0).
	AdaptNumNACK bool
	// EarlyUnicast also switches to unicast as soon as the total size of
	// the pending USR packets is no more than the PARITY packets the
	// next multicast round would send.
	EarlyUnicast bool
	// DeadlineRounds is the soft real-time deadline, in multicast
	// rounds. Zero disables deadline accounting.
	DeadlineRounds int
	// SendInterval is the time between consecutive multicast packets
	// (seconds); the paper's server sends 10 packets/second.
	SendInterval float64
	// RoundSlack is added to each round's duration beyond transmission
	// time, covering the maximum user RTT.
	RoundSlack float64
	// UnicastInterval is the duration of one unicast retransmission
	// wave, typically one RTT -- much shorter than a multicast round.
	UnicastInterval float64
	// SequentialSend disables the interleaved send order, transmitting
	// each block's shards back to back. The protocol interleaves by
	// default so a burst-loss period cannot claim several shards of one
	// block; this switch exists for the ablation experiment.
	SequentialSend bool
	// Obs, when non-nil, receives per-round metrics and trace events
	// (NACKs per round, RhoAdjusted, SwitchToUnicast). A nil registry
	// costs the simulation hot path only a pointer check.
	Obs *obs.Registry
}

// DefaultConfig returns the paper's default parameters: the shared
// tuning defaults (k=10, rho0=1, numNACK target 20 capped at 100,
// unicast after 2 multicast rounds) plus adaptive rho, deadline 2
// rounds, 10 packets/second.
func DefaultConfig() Config {
	return Config{
		Tuning:          tuning.Default(),
		AdaptiveRho:     true,
		AdaptNumNACK:    false,
		EarlyUnicast:    false,
		DeadlineRounds:  2,
		SendInterval:    0.100,
		RoundSlack:      0.500,
		UnicastInterval: 0.200,
	}
}

func (c Config) validate() error {
	t := c.Tuning
	if t.Degree == 0 {
		// The session never reads Degree (each Message carries its
		// TreeDegree), so don't force callers to set it.
		t.Degree = tuning.Default().Degree
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	if c.SendInterval <= 0 {
		return fmt.Errorf("protocol: SendInterval = %v, want > 0", c.SendInterval)
	}
	if c.AdaptNumNACK && c.DeadlineRounds <= 0 {
		return fmt.Errorf("protocol: AdaptNumNACK requires DeadlineRounds > 0")
	}
	return nil
}

// Message is the transport-level description of one rekey message: its
// ENC packets, their user ranges, and which packet each user needs.
// Build one with BuildMessage.
type Message struct {
	// Part partitions the NumEnc real packets into blocks of K.
	Part blockplan.Partition
	// UserPkt[i] is user i's specific ENC packet index, or -1 if user i
	// needs nothing this interval.
	UserPkt []int
	// FrmID and ToID give each real packet's user-ID range.
	FrmID, ToID []int
	// UserNodeID maps user index to key tree node ID.
	UserNodeID []int
	// EncsPerUser is how many encryptions each user needs (sizes its
	// USR packet).
	EncsPerUser []int
	// MaxKID is field 5 of every ENC packet.
	MaxKID int
	// TreeDegree is the key tree degree (estimation uses it).
	TreeDegree int
}

// NumEnc returns h, the number of real ENC packets in the message.
func (m *Message) NumEnc() int { return m.Part.NumReal }

// BuildMessage assembles the transport descriptor for a batch result and
// its UKA plan, with FEC block size k. The network's user index i is
// identified with res.UserIDs[i].
func BuildMessage(res *keytree.BatchResult, plan *assign.Plan, k, treeDegree int) (*Message, error) {
	part, err := blockplan.NewPartition(len(plan.Packets), k)
	if err != nil {
		return nil, err
	}
	m := &Message{
		Part:        part,
		UserPkt:     make([]int, len(res.UserIDs)),
		FrmID:       make([]int, len(plan.Packets)),
		ToID:        make([]int, len(plan.Packets)),
		UserNodeID:  append([]int(nil), res.UserIDs...),
		EncsPerUser: make([]int, len(res.UserIDs)),
		MaxKID:      res.MaxKID,
		TreeDegree:  treeDegree,
	}
	for i, pp := range plan.Packets {
		m.FrmID[i], m.ToID[i] = pp.FrmID, pp.ToID
	}
	var needs []uint32
	for i, nodeID := range res.UserIDs {
		if pi, ok := plan.UserPacket[nodeID]; ok {
			m.UserPkt[i] = pi
		} else {
			m.UserPkt[i] = -1
		}
		needs = res.AppendUserNeedIDs(needs[:0], nodeID)
		m.EncsPerUser[i] = len(needs)
	}
	return m, nil
}

// Metrics reports one rekey message's transport outcome.
type Metrics struct {
	MsgID         int
	RhoUsed       float64
	NumNACKTarget int
	EncPackets    int // h: real ENC packets
	Blocks        int
	// MulticastSent is h': every multicast packet sent (ENC packets
	// including last-block duplicates, plus all PARITY packets, across
	// all rounds).
	MulticastSent int
	ParitySent    int
	DupSent       int
	Round1NACKs   int
	NACKsPerRound []int
	// MulticastRounds is the number of multicast rounds run.
	MulticastRounds int
	UsrSent         int
	UnicastWaves    int
	// UserRoundHist maps finishing round to user count. Multicast
	// finishers record their round (1-based); unicast finishers record
	// MulticastRounds + wave.
	UserRoundHist  map[int]int
	MissedDeadline int
	// NeededUsers is how many users needed any packet this message.
	NeededUsers int
	AllDone     bool
	// Elapsed is simulated seconds from first send to completion.
	Elapsed float64
}

// BandwidthOverhead is h'/h, the server multicast bandwidth overhead.
func (m *Metrics) BandwidthOverhead() float64 {
	if m.EncPackets == 0 {
		return 0
	}
	return float64(m.MulticastSent) / float64(m.EncPackets)
}

// AvgUserRounds is the mean finishing round over users that needed
// packets.
func (m *Metrics) AvgUserRounds() float64 {
	total, n := 0, 0
	for r, c := range m.UserRoundHist {
		total += r * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// Session runs rekey messages over one network, carrying the adaptive
// state (rho and the NACK target) across messages as the key server
// does.
type Session struct {
	cfg     Config
	net     *netsim.Star
	rho     float64
	numNACK int
	now     float64
	msgSeq  int
	rng     *rand.Rand
}

// NewSession creates a session. The star network's user count fixes the
// group size every message must match.
func NewSession(cfg Config, net *netsim.Star, seed uint64) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Obs.Set(obs.GRho, cfg.InitialRho)
	return &Session{
		cfg:     cfg,
		net:     net,
		rho:     cfg.InitialRho,
		numNACK: cfg.NumNACK,
		rng:     rand.New(rand.NewPCG(seed, 0x5e55)),
	}, nil
}

// Rho returns the proactivity factor the next message will use.
func (s *Session) Rho() float64 { return s.rho }

// Rebind swaps the session's network while carrying the adaptive state
// (rho, the NACK target) across the change. Scenario harnesses use it:
// churn changes the group size every interval, so each rekey message
// runs on a freshly built star sized to the post-batch membership while
// the server-side controllers persist, as they do in a real key server.
// The simulation clock restarts at zero so the new links begin in their
// stationary state.
func (s *Session) Rebind(net *netsim.Star) {
	s.net = net
	s.now = 0
}

// NumNACK returns the current first-round NACK target.
func (s *Session) NumNACK() int { return s.numNACK }

// userState is the engine's per-user transport state for one message.
type userState struct {
	pkt         int // specific real ENC packet index; -1 = nothing needed
	block       int
	counts      []uint16 // shards received per block
	est         blockplan.Estimator
	gotSpecific bool
	doneRound   int // 0 = pending; >0 finishing round index
}

func (u *userState) done() bool { return u.pkt < 0 || u.doneRound > 0 }

// recovered reports whether the user can produce its specific packet:
// it received it directly, or holds >= k shards of its block.
func (u *userState) recovered(k int) bool {
	return u.gotSpecific || int(u.counts[u.block]) >= k
}

// observeRefs, when set (by tests), sees each multicast round's shards
// in the order Run sends them.
var observeRefs func(refs []blockplan.Ref)

// Run executes the transport protocol for one rekey message and returns
// its metrics. An empty message (no ENC packets) returns immediately.
func (s *Session) Run(msg *Message) (*Metrics, error) {
	if len(msg.UserPkt) != s.net.N() {
		return nil, fmt.Errorf("protocol: message for %d users on a %d-user network", len(msg.UserPkt), s.net.N())
	}
	cfg := s.cfg
	k := cfg.K
	if msg.Part.K != k {
		return nil, fmt.Errorf("protocol: message partition uses k=%d, session k=%d", msg.Part.K, k)
	}
	met := &Metrics{
		MsgID:         s.msgSeq,
		RhoUsed:       s.rho,
		NumNACKTarget: s.numNACK,
		EncPackets:    msg.NumEnc(),
		Blocks:        msg.Part.NumBlocks(),
		UserRoundHist: make(map[int]int),
	}
	s.msgSeq++
	if msg.NumEnc() == 0 {
		met.AllDone = true
		return met, nil
	}

	blocks := msg.Part.NumBlocks()
	users := make([]userState, len(msg.UserPkt))
	pending := 0
	for i := range users {
		users[i] = userState{pkt: msg.UserPkt[i], est: blockplan.NewEstimator()}
		if msg.UserPkt[i] >= 0 {
			users[i].block, _ = msg.Part.Slot(msg.UserPkt[i])
			users[i].counts = make([]uint16, blocks)
			pending++
		}
	}
	met.NeededUsers = pending

	start := s.now
	snd := NewSender(msg.Part, s.rho, cfg.MaxMulticastRounds, WaveBudget)
	step := Multicast
	for ; step == Multicast; step = snd.Next() {
		round := snd.Round()
		refs := snd.Refs()
		if cfg.SequentialSend {
			// The ablation's order: the same shards, each block's back
			// to back.
			refs = slices.Clone(refs)
			slices.SortStableFunc(refs, func(a, b blockplan.Ref) int { return a.Block - b.Block })
		}
		if observeRefs != nil {
			observeRefs(refs)
		}
		met.MulticastSent += len(refs)
		for _, r := range refs {
			switch {
			case r.IsParity(k):
				met.ParitySent++
			case msg.Part.IsDuplicate(r.Block, r.Shard):
				met.DupSent++
			}
		}
		cfg.Obs.Emit(obs.Event{Kind: obs.EvRoundStart, MsgID: uint8(met.MsgID & 0x3f),
			Round: round, Value: float64(len(refs))})
		times := make([]float64, len(refs))
		for i := range times {
			times[i] = s.now + float64(i)*cfg.SendInterval
		}
		rd := s.net.MulticastRound(times)
		s.now += float64(len(refs))*cfg.SendInterval + cfg.RoundSlack

		s.processRound(msg, users, refs, rd, round, snd, met)
		nacks := snd.NACKs()
		met.NACKsPerRound = append(met.NACKsPerRound, nacks)
		cfg.Obs.Observe(obs.HNACKsPerRound, float64(nacks))
		if round == 1 {
			met.Round1NACKs = nacks
			if cfg.AdaptiveRho {
				if rho := AdjustRho(s.rho, k, s.numNACK, snd.Demand(), s.rng); rho != s.rho {
					s.rho = rho
					cfg.Obs.Emit(obs.Event{Kind: obs.EvRhoAdjusted, MsgID: uint8(s.msgSeq & 0x3f), Value: s.rho})
				}
				cfg.Obs.Set(obs.GRho, s.rho)
			}
		}
		met.MulticastRounds = round
		if cfg.EarlyUnicast && s.usrBytes(msg, users) <= s.parityBytes(snd.Amax()) {
			snd.UnicastNow()
		}
	}

	// Deadline accounting happens at the multicast/unicast boundary:
	// a user meets the deadline iff it recovered within DeadlineRounds
	// multicast rounds.
	if cfg.DeadlineRounds > 0 {
		for i := range users {
			u := &users[i]
			if u.pkt < 0 {
				continue
			}
			if u.doneRound == 0 || u.doneRound > cfg.DeadlineRounds {
				met.MissedDeadline++
			}
		}
		if cfg.AdaptNumNACK {
			if met.MissedDeadline == 0 {
				s.numNACK = min(s.numNACK+1, cfg.MaxNACK)
			} else {
				s.numNACK = max(s.numNACK-met.MissedDeadline, 0)
			}
		}
	}

	if step != Done {
		cfg.Obs.Emit(obs.Event{Kind: obs.EvSwitchToUnicast,
			MsgID: uint8(met.MsgID & 0x3f), Round: met.MulticastRounds, Value: float64(len(snd.Waiting()))})
		step = s.unicast(users, snd, step, met)
	}
	met.AllDone = step == Done
	met.Elapsed = s.now - start
	// Idle gap between rekey messages keeps link processes realistic.
	s.now += cfg.RoundSlack
	return met, nil
}

// processRound distributes one round's deliveries to the pending users
// (in parallel) and feeds each one still short of its packet to snd as a
// NACK, in user order.
func (s *Session) processRound(msg *Message, users []userState, refs []blockplan.Ref, rd *netsim.RoundDelivery, round int, snd *Sender, met *Metrics) {
	k := s.cfg.K
	blocks := msg.Part.NumBlocks()
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nacks := make([][]Request, len(users)) // each user's NACK, nil for none
	var wg sync.WaitGroup
	chunk := (len(users) + workers - 1) / workers
	for lo := 0; lo < len(users); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for ui := lo; ui < hi; ui++ {
				u := &users[ui]
				if u.done() {
					// Done users still consume the round so their link
					// processes advance deterministically.
					rd.Received(ui)
					continue
				}
				for _, idx := range rd.Received(ui) {
					r := refs[idx]
					u.counts[r.Block]++
					if !r.IsParity(k) {
						real := msg.Part.RealIndex(r.Block, r.Shard)
						if real == u.pkt {
							u.gotSpecific = true
						}
						if !msg.Part.IsDuplicate(r.Block, r.Shard) {
							u.est.Observe(msg.UserNodeID[ui], blockplan.ENCHeader{
								BlockID: r.Block, Seq: r.Shard,
								FrmID: msg.FrmID[real], ToID: msg.ToID[real],
								MaxKID: msg.MaxKID,
							}, k, msg.TreeDegree)
						}
					}
				}
				if u.recovered(k) {
					u.doneRound = round
					continue
				}
				// NACK: request parity for each block in the estimated
				// range still short of k.
				for b := max(u.est.Low, 0); b <= min(u.est.High, blocks-1); b++ {
					if a := k - int(u.counts[b]); a > 0 {
						nacks[ui] = append(nacks[ui], Request{Block: b, Count: a})
					}
				}
				if nacks[ui] == nil {
					// The estimated range is fully stocked yet the user
					// could not decode its packet: only possible when the
					// range excludes the true block, which the estimator
					// forbids. Guard regardless.
					nacks[ui] = []Request{{Block: u.block, Count: 1}}
				}
			}
		}(lo, min(lo+chunk, len(users)))
	}
	wg.Wait()

	for ui, reqs := range nacks {
		if users[ui].doneRound == round {
			met.UserRoundHist[round]++
		}
		if reqs != nil {
			snd.NACK(ui, reqs)
		}
	}
}

// usrBytes is the total size of the USR packets (plus UDP headers) that
// unicasting now would send to the still-pending users.
func (s *Session) usrBytes(msg *Message, users []userState) int {
	const udpHeader = 8
	total := 0
	for i := range users {
		if users[i].done() {
			continue
		}
		total += 5 + packet.EncEntryLen*msg.EncsPerUser[i] + udpHeader
	}
	return total
}

// parityBytes is the size of the PARITY packets the next multicast round
// would send.
func (s *Session) parityBytes(amax []int) int {
	const udpHeader = 8
	n := 0
	for _, a := range amax {
		n += a
	}
	return n * (packet.PacketLen + udpHeader)
}

// unicast implements Switch2Unicast (Fig. 22) and returns the Sender's
// last step. A waiting user none of a wave's Dups copies reach NACKs it.
func (s *Session) unicast(users []userState, snd *Sender, step Step, met *Metrics) Step {
	for ; step == Unicast; step = snd.Next() {
		wave, waiting := snd.Wave(), snd.Waiting()
		for ui := range users {
			if !waiting[ui] {
				continue
			}
			got := false
			for j := 0; j < snd.Dups(); j++ {
				met.UsrSent++
				// Duplicates of one wave go out back to back; distinct
				// users' sends share the wave window.
				t := s.now + float64(j)*0.001
				if s.net.Unicast(ui, t) {
					got = true
				}
			}
			if got {
				users[ui].doneRound = met.MulticastRounds + wave
				met.UserRoundHist[met.MulticastRounds+wave]++
			} else {
				snd.NACK(ui, nil)
			}
		}
		s.now += s.cfg.UnicastInterval
		met.UnicastWaves = wave
	}
	return step
}
