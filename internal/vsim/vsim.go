// Package vsim is the virtual-time driver of the rekey transport: the
// paper's simulated evaluation (Figs. 8-21) run on the code the key
// server daemon runs. Each rekey message is a real rekey.RekeyMessage;
// protocol.Session, the state machine udptrans drives over sockets,
// decides what each round and wave sends, takes the members' NACK bytes
// as udptrans hands it a datagram's, carries rho and the NACK target
// across messages and keeps the account this package's Metrics embed;
// netsim's star decides which datagrams each member's link lets through
// at which virtual time; and real rekey.Members ingest those bytes and
// answer with real NACK bytes. Session adds the virtual clock, the
// network and the delivery to members. Group keeps a real Member for
// every member of a key server's group.
package vsim

import (
	"context"
	"fmt"
	"slices"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/tuning"
)

// WaveBudget is the unicast wave budget of a Session.
const WaveBudget = 50

// The session's virtual clock, in seconds.
const (
	// sendInterval is the time between consecutive multicast packets:
	// the paper's server sends 10 packets/second.
	sendInterval = 0.100
	// roundSlack is added to each round's duration beyond transmission
	// time, covering the maximum user RTT.
	roundSlack = 0.500
	// unicastInterval is the duration of one unicast retransmission
	// wave, typically one RTT -- much shorter than a multicast round.
	unicastInterval = 0.200
)

// Config holds the transport protocol parameters. The shared knobs
// (k, rho0 and its adaptation, NACK targets, round budget) come from
// the embedded tuning core -- the same struct rekey.Config embeds -- so
// they are defined and validated in exactly one place; the fields
// declared here are simulation-specific.
type Config struct {
	// Tuning is the shared knob core; see package tuning. The session
	// never reads Degree: the members know their tree's.
	tuning.Tuning
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

// Metrics reports one rekey message's transport outcome: the Session's
// account of rounds, waves, datagrams and NACKs, as is, and what only a
// simulation sees.
type Metrics struct {
	protocol.Outcome
	MsgID         int
	RhoUsed       float64
	NumNACKTarget int
	EncPackets    int // h: real ENC packets
	Blocks        int
	// UserRoundHist maps finishing round to member count: the round in
	// which a member's Ingest first reported Done. Multicast finishers
	// record their round (1-based); unicast finishers record Rounds +
	// wave.
	UserRoundHist map[int]int
	// MissedDeadline counts members not keyed within
	// Tuning.MaxMulticastRounds rounds, the deadline; 0 without one. It
	// is the deadline misses the Session saw (Session.Close) plus
	// Unreached, whom no server sees.
	MissedDeadline int
	// NeededUsers is how many members the message was for.
	NeededUsers int
	// Unreached counts members that ended the run without the message
	// and without asking for it: nothing they heard gave them a block to
	// NACK, so the Session never served them (ROADMAP item 16). Run hands
	// each its USR datagram out of band afterwards, so that the group's
	// next message finds it keyed.
	Unreached int
	// AllDone reports that the Session finished and no member is
	// unreached.
	AllDone bool
}

// BandwidthOverhead is h'/h, the server multicast bandwidth overhead:
// every multicast datagram sent, ENC (last-block duplicates included)
// and PARITY across all rounds, over the real ENC packets.
func (m *Metrics) BandwidthOverhead() float64 {
	if m.EncPackets == 0 {
		return 0
	}
	return float64(m.EncSent+m.ParitySent) / float64(m.EncPackets)
}

// AvgUserRounds is the mean finishing round over members that finished.
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

// Member is the client half a Session delivers to, *rekey.Member: it
// consumes datagrams and, at a round's end, says what it still needs
// (Fig. 27). Keys, which the session never calls, is what it holds by
// node ID, for a checker to judge.
type Member interface {
	Ingest(raw []byte) (rekey.IngestResult, error)
	NACK() (*packet.NACK, bool)
	Keys() map[int]keys.Key
}

// Session runs rekey messages over one network in virtual time, with a
// protocol.Session carrying rho and the NACK target across them.
type Session struct {
	cfg    Config
	net    *netsim.Star
	core   *protocol.Session
	now    float64
	msgSeq int
	round  rekey.Round // the round being delivered; its arrays carry over
}

// NewSession creates a session over net, whose user count bounds the
// members a message may have; seed seeds rho's adaptation.
func NewSession(cfg Config, net *netsim.Star, seed uint64) (*Session, error) {
	if err := cfg.Tuning.Validate(); err != nil {
		return nil, fmt.Errorf("vsim: %w", err)
	}
	return &Session{cfg: cfg, net: net, core: protocol.NewSession(cfg.Tuning, seed, cfg.Obs)}, nil
}

// Rho returns the proactivity factor the next message will use.
func (s *Session) Rho() float64 { return s.core.Rho() }

// NumNACK returns the current first-round NACK target.
func (s *Session) NumNACK() int { return s.core.NumNACK() }

// run is one message's transport state.
type run struct {
	rm      *rekey.RekeyMessage
	members []Member
	done    []int // each member's finishing round; 0 while pending
}

// Run transports one rekey message to members -- the members of its
// group in rm.Result.UserIDs order, as Group.Rekey returns them; member
// i listens behind the network's link i -- and returns its metrics. A
// message with no ENC packets returns at once.
func (s *Session) Run(rm *rekey.RekeyMessage, members []Member) (*Metrics, error) {
	cfg := s.cfg
	k := cfg.K
	switch {
	case len(members) > s.net.N():
		return nil, fmt.Errorf("vsim: %d members on a %d-user network", len(members), s.net.N())
	case len(rm.ENC) > 0 && rm.Part.K != k:
		return nil, fmt.Errorf("vsim: message partition uses k=%d, session k=%d", rm.Part.K, k)
	case len(rm.ENC) > 0 && len(members) != len(rm.Result.UserIDs):
		return nil, fmt.Errorf("vsim: %d members for a %d-member message", len(members), len(rm.Result.UserIDs))
	}
	met := &Metrics{
		MsgID:         s.msgSeq,
		RhoUsed:       s.core.Rho(),
		NumNACKTarget: s.core.NumNACK(),
		NeededUsers:   len(members),
		UserRoundHist: make(map[int]int),
	}
	s.msgSeq++
	if len(rm.ENC) == 0 {
		met.AllDone = true
		return met, nil
	}
	met.EncPackets, met.Blocks = rm.NumRealPackets(), rm.Blocks()
	r := &run{rm: rm, members: members, done: make([]int, len(members))}

	s.core.Open(rm.Part, rm.MsgID, WaveBudget)
	step := protocol.Multicast
	for ; step == protocol.Multicast; step = s.core.Next() {
		round := s.core.Outcome().Rounds
		refs := s.core.Refs()
		if cfg.SequentialSend {
			// The ablation's order: the same shards, each block's back
			// to back.
			refs = slices.Clone(refs)
			slices.SortStableFunc(refs, func(a, b blockplan.Ref) int { return a.Block - b.Block })
		}
		if err := rm.BuildRound(context.TODO(), &s.round, refs); err != nil {
			return nil, err
		}
		times := make([]float64, len(refs))
		for i := range times {
			times[i] = s.now + float64(i)*sendInterval
		}
		rd := s.net.MulticastRound(times)
		s.now += float64(len(refs))*sendInterval + roundSlack

		for i, raw := range s.deliver(r, rd, round) {
			if r.done[i] == round {
				met.UserRoundHist[round]++
			}
			if raw != nil {
				s.core.NACK(i, raw)
			}
		}
	}
	if step == protocol.Unicast {
		var err error
		if step, err = s.unicast(r, met); err != nil {
			return nil, err
		}
	}
	// Whoever is neither keyed nor still asking heard nothing to ask
	// with: it gets its keys out of band, as a re-registration would.
	waiting := s.core.Waiting()
	for i, d := range r.done {
		if d > 0 || waiting[i] {
			continue
		}
		met.Unreached++
		if err := keyOutOfBand(members[i], rm, i); err != nil {
			return nil, err
		}
	}
	met.AllDone = step == protocol.Done && met.Unreached == 0
	if missed := s.core.Close(); cfg.MaxMulticastRounds > 0 {
		met.MissedDeadline = missed + met.Unreached
	}
	met.Outcome = *s.core.Outcome()
	// Idle gap between rekey messages keeps link processes realistic.
	s.now += roundSlack
	return met, nil
}

// deliver hands the round in s.round to the members, runs of them at a
// time over GOMAXPROCS goroutines (tuning.FanOut): each pending member
// ingests the round's datagrams its link let through, then, still
// pending, marshals its NACK. It returns the NACK bytes by member (nil
// for none) and records each finisher's round.
//
// A member takes its own ENC packet first when the link delivered it, as
// the wire's need-first order sends it, and stops listening once keyed:
// what else the round carries is stale to it. Neither changes what a
// member ends the round holding or asking for.
func (s *Session) deliver(r *run, rd *netsim.RoundDelivery, round int) [][]byte {
	rnd := &s.round
	nacks := make([][]byte, len(r.members))
	// No piece fails, so FanOut returns nil.
	_ = tuning.FanOut(len(r.members), membersPerPiece, func() *[]int { return new([]int) }, func(buf *[]int, lo, hi int) error {
		got := *buf // the goroutine's buffer, one member's at a time
		for i := lo; i < hi; i++ {
			if r.done[i] > 0 {
				continue
			}
			got = rd.Received(got[:0], i)
			m := r.members[i]
			keyed := false
			if own, ok := r.rm.PacketFor(r.rm.Result.UserIDs[i]); ok {
				j := rnd.At[own] // -1, which got never holds, when the round lacks it
				if _, ok := slices.BinarySearch(got, j); ok {
					keyed = keyedBy(m, rnd.Datagram(j))
				}
			}
			for n := 0; !keyed && n < len(got); n++ {
				keyed = keyedBy(m, rnd.Datagram(got[n]))
			}
			if keyed {
				r.done[i] = round
			}
			if nk, ok := m.NACK(); ok { // none once keyed
				nacks[i], _ = nk.Marshal() // a member's own msgID always fits
			}
		}
		*buf = got
		return nil
	})
	return nacks
}

// membersPerPiece is how many members deliver hands a goroutine at a
// time: enough ingests that taking a piece off the cursor is noise.
const membersPerPiece = 64

// keyedBy reports whether ingesting wire left m keyed.
func keyedBy(m Member, wire []byte) bool {
	res, err := m.Ingest(wire)
	return err == nil && res.Done
}

// unicast implements Switch2Unicast (Fig. 22) and returns the Session's
// last step. A waiting member none of its wave's copies reach NACKs
// again.
func (s *Session) unicast(r *run, met *Metrics) (protocol.Step, error) {
	step, out := protocol.Unicast, s.core.Outcome()
	for ; step == protocol.Unicast; step = s.core.Next() {
		wave, waiting := out.UnicastWaves, s.core.Waiting()
		for i, m := range r.members {
			if !waiting[i] {
				continue
			}
			got := false
			for j := 0; j < s.core.Copies(i); j++ {
				// Duplicates of one wave go out back to back; distinct
				// members' sends share the wave window.
				got = s.net.Unicast(i, s.now+float64(j)*0.001) || got
			}
			if got {
				w, err := r.rm.WireUSR(r.rm.Result.UserIDs[i])
				if err != nil {
					return step, err
				}
				if res, err := m.Ingest(w); err == nil && res.Done {
					r.done[i] = out.Rounds + wave
					met.UserRoundHist[r.done[i]]++
					continue
				}
			}
			if nk, ok := m.NACK(); ok {
				raw, _ := nk.Marshal() // a member's own msgID always fits
				s.core.NACK(i, raw)
			}
		}
		s.now += unicastInterval
	}
	return step, nil
}

// Group is a key server's group as a Session meets it: a real
// rekey.Member for each of its members.
type Group struct {
	srv     *rekey.Server
	tree    *keytree.Tree
	members map[rekey.MemberID]*rekey.Member
}

// NewGroup starts a key server from opts, admits members 0..n-1 in its
// first message, and keys each one's Member out of band with its USR
// datagram of that message, as registration would.
func NewGroup(n int, opts ...rekey.Option) (*Group, error) {
	srv, err := rekey.NewServer(opts...)
	if err != nil {
		return nil, err
	}
	g := &Group{srv: srv, members: make(map[rekey.MemberID]*rekey.Member)}
	ids := make([]rekey.MemberID, n)
	for i := range ids {
		ids[i] = rekey.MemberID(i)
	}
	boot, members, err := g.Rekey(ids, nil)
	if err != nil {
		return nil, err
	}
	for i, m := range members {
		if err := keyOutOfBand(m, boot, i); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// keyOutOfBand hands member i of rm's group its USR datagram directly.
func keyOutOfBand(m Member, rm *rekey.RekeyMessage, i int) error {
	w, err := rm.WireUSR(rm.Result.UserIDs[i])
	if err != nil {
		return err
	}
	if res, err := m.Ingest(w); err != nil || !res.Done {
		return fmt.Errorf("vsim: member %d: USR out of band: done=%v err=%v", i, res.Done, err)
	}
	return nil
}

// Tree returns the server's key tree as of the last Rekey, restored
// from its snapshot: changing it changes nothing of the group's.
func (g *Group) Tree() *keytree.Tree { return g.tree }

// Members returns the group's Members in the order Session.Run takes
// them: ascending node ID, as the last message's Result.UserIDs lists
// them.
func (g *Group) Members() []Member {
	ids := g.tree.Members()
	out := make([]Member, len(ids))
	for i, id := range ids {
		out[i] = g.members[id]
	}
	return out
}

// Rekey queues joins and leaves, rekeys, and returns the message with
// the group's Members (see Members). A joiner gets a Member from its
// credentials; a leaver loses its own.
func (g *Group) Rekey(joins, leaves []rekey.MemberID) (*rekey.RekeyMessage, []Member, error) {
	for _, id := range joins {
		if err := g.srv.QueueJoin(id); err != nil {
			return nil, nil, err
		}
	}
	for _, id := range leaves {
		if err := g.srv.QueueLeave(id); err != nil {
			return nil, nil, err
		}
	}
	rm, err := g.srv.Rekey()
	if err != nil {
		return nil, nil, err
	}
	if g.tree, err = keytree.Restore(g.srv.Snapshot(), nil); err != nil {
		return nil, nil, err
	}
	for _, id := range leaves {
		delete(g.members, id)
	}
	for _, id := range joins {
		cred, ok := g.srv.Credentials(id)
		if !ok {
			return nil, nil, fmt.Errorf("vsim: no credentials for member %d", id)
		}
		if g.members[id], err = rekey.NewMember(cred); err != nil {
			return nil, nil, err
		}
	}
	return rm, g.Members(), nil
}
