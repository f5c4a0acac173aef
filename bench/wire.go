package main

import (
	"context"
	"crypto/rsa"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/udptrans"
)

// endpoint is one member on the wire: a udptrans.Client with its own
// loopback socket and receive goroutine, plus what the harness counts at
// its door. The counters are written by the client's receive goroutine
// (inside the Drop hook) and read by the driver once the interval is
// over.
type endpoint struct {
	id rekey.MemberID
	c  *udptrans.Client
	g  *wireGroup

	rxPkts, rxBytes, dropped atomic.Int64
	usrSeen, usrUseful       atomic.Int64

	// The member's receiver link: a Gilbert chain stepped once per
	// arriving datagram (half a mean burst per step, so bursts average
	// two datagrams). Touched only by the receive goroutine.
	link  *netsim.GilbertLink
	lossP float64
	slot  float64

	// Traced sample members keep what survived the link, in arrival
	// order, for the shadow member to ingest after the interval.
	mu       sync.Mutex
	arrivals [][]byte // guarded by mu
	shadow   *rekey.Member
	verifier *keys.RootVerifier // bench-owned twin of the member's, for the cache share
}

// wireGroup is a key server, its UDP transport and n live members, all
// in this process, talking over host loopback.
type wireGroup struct {
	spec   *spec
	seed   uint64
	traced bool

	ks   *rekey.Server
	srv  *udptrans.Server
	sobs *obs.Registry // key server + transport; nil in the untraced run
	cobs *obs.Registry // shared by every member: EvMemberDone carries the done times
	pub  *rsa.PublicKey
	rep  *replayer // traced run only

	ctx    context.Context // ends the members' receive goroutines
	cancel context.CancelFunc
	opts   udptrans.Options

	roster  *roster
	ends    map[rekey.MemberID]*endpoint
	sample  map[rekey.MemberID]bool
	forced  []rekey.MemberID // members that lost the key for good; they leave next
	nextSeq uint64           // first member event not yet consumed
	sprev   obs.Snapshot

	// Read by every receive goroutine.
	epoch     time.Time
	k         int                      // FEC block size: PARITY seqs start here
	retxSeq   int                      // a PARITY seq at or beyond this was not sent proactively
	firstRetx atomic.Int64             // ns since epoch of the interval's first retransmission; 0 = none
	want      atomic.Pointer[keys.Key] // the key the current interval delivers
	parity    [256]atomic.Int32        // parity packets seen per block (traced run)
	// lossy switches the members' links on once the group is up: with
	// the bootstrap message under loss, setup_s would be a draw from the
	// NACK-window lottery the measured intervals are there to measure.
	lossy atomic.Bool
}

// onDatagram is every client's Drop hook: it counts the datagram before
// any injected loss, notes retransmissions and useless unicasts, then
// lets the member's link decide.
func (e *endpoint) onDatagram(pkt []byte) bool {
	e.rxPkts.Add(1)
	e.rxBytes.Add(int64(len(pkt)))
	if len(pkt) >= 3 {
		switch packet.Type(pkt[0] >> 6) {
		case packet.TypePARITY:
			e.g.sawParity(int(pkt[1]), int(pkt[2]))
		case packet.TypeUSR:
			e.usrSeen.Add(1)
			if !e.keyed(*e.g.want.Load()) {
				e.usrUseful.Add(1)
			}
		}
	}
	if e.link == nil || !e.g.lossy.Load() {
		return false
	}
	e.slot++
	if e.link.Lost(e.slot * netsim.BurstMean / 2) {
		e.dropped.Add(1)
		return true
	}
	return false
}

func (g *wireGroup) sawParity(block, seq int) {
	if seq >= g.retxSeq && g.firstRetx.Load() == 0 {
		g.firstRetx.CompareAndSwap(0, int64(time.Since(g.epoch)))
	}
	if g.traced {
		n := int32(seq + 1 - g.k)
		for cur := g.parity[block].Load(); n > cur && !g.parity[block].CompareAndSwap(cur, n); cur = g.parity[block].Load() {
		}
	}
}

// capture is a traced sample client's Mangle hook. The client hands it
// a private copy of the datagram.
func (e *endpoint) capture(pkt []byte) [][]byte {
	e.mu.Lock()
	e.arrivals = append(e.arrivals, pkt)
	e.mu.Unlock()
	return [][]byte{pkt}
}

func (e *endpoint) takeArrivals() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.arrivals
	e.arrivals = nil
	return out
}

func (e *endpoint) keyed(want keys.Key) bool {
	gk, ok := e.c.Member.GroupKey()
	return ok && gk.Equal(want)
}

func (e *endpoint) resetCounters() {
	e.rxPkts.Store(0)
	e.rxBytes.Store(0)
	e.dropped.Store(0)
	e.usrSeen.Store(0)
	e.usrUseful.Store(0)
}

func bindLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// admit turns a registered member into a live endpoint on conn: member
// state from its credentials, hooks, address registration, receive
// goroutine.
func (g *wireGroup) admit(id rekey.MemberID, conn *net.UDPConn, sampled bool) error {
	cred, ok := g.ks.Credentials(id)
	if !ok {
		conn.Close()
		return fmt.Errorf("member %d has no credentials after Rekey", id)
	}
	c, err := udptrans.NewClientOnConn(cred, g.srv.Addr(), conn)
	if err != nil {
		return err
	}
	e := &endpoint{id: id, c: c, g: g}
	c.QuietGap = g.spec.quietGap
	c.Obs = g.cobs
	c.Drop = e.onDatagram
	if g.pub != nil {
		c.Member.SetVerifier(keys.NewRootVerifier(g.pub))
	}
	if g.spec.lossy {
		rng := newRand(g.seed, laneLoss<<32|uint64(id))
		e.lossP = lossLow
		if rng.Float64() < lossAlpha {
			e.lossP = lossHigh
		}
		if e.link, err = netsim.NewGilbertLink(e.lossP, rng); err != nil {
			return err
		}
	}
	if sampled {
		g.sample[id] = true
	}
	if sampled && g.traced {
		if e.shadow, err = rekey.NewMember(cred); err != nil {
			return err
		}
		if g.pub != nil {
			e.shadow.SetVerifier(keys.NewRootVerifier(g.pub))
			e.verifier = keys.NewRootVerifier(g.pub)
		}
		c.Mangle = e.capture
	}
	g.ends[id] = e
	g.srv.SetMemberAddr(id, c.Addr())
	go c.Run(g.ctx) //nolint:errcheck // Run ends with Close or the group's context; neither is an error here
	return nil
}

// setupWire builds the group: key server, transport, n members bound
// and running, and the bootstrap message delivered to all of them.
func setupWire(s *spec, seed uint64, traced bool, signer *keys.Signer) (*wireGroup, error) {
	g := &wireGroup{
		spec: s, seed: seed, traced: traced,
		cobs:   obs.NewWithDepth(4 * s.n),
		ends:   make(map[rekey.MemberID]*endpoint, s.n+s.n/4),
		sample: make(map[rekey.MemberID]bool, sampleSize),
		roster: newRoster(s.n, seed),
		epoch:  time.Now(),
		opts:   udptrans.Options{RoundDur: s.roundDur, MaxUnicastWaves: 8},
		k:      s.tuning().K,
	}
	g.retxSeq = g.k + blockplan.ProactiveParity(g.k, s.rho)
	opts := serverOptions(s, seed, signer)
	var err error
	if traced {
		g.sobs = obs.NewWithDepth(4096)
		opts = append(opts, rekey.WithObs(g.sobs))
		if g.rep, err = newReplayer(s, seed, signer); err != nil {
			return nil, err
		}
	}
	if g.ks, err = rekey.NewServer(opts...); err != nil {
		return nil, err
	}
	g.pub = g.ks.SignerPublic()
	if g.srv, err = udptrans.NewServer(g.ks, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	if err := g.bootstrap(); err != nil {
		g.close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return g, nil
}

// bootstrap joins the whole roster in one batch, admits every member
// and delivers the first message, loss-free, to all of them.
func (g *wireGroup) bootstrap() error {
	plan, rm, err := firstBatch(g.ks, g.roster)
	if err != nil {
		return err
	}
	sampled := pickSample(g.seed, plan.joins)
	for _, id := range plan.joins {
		conn, err := bindLoopback()
		if err == nil {
			err = g.admit(id, conn, sampled[id])
		}
		if err != nil {
			return err
		}
	}
	key := g.ks.GroupKey()
	g.want.Store(&key)
	if _, err := g.srv.Distribute(g.ctx, rm, g.opts); err != nil {
		return err
	}
	if late := g.awaitKeyed(key, time.Second); len(late) > 0 {
		return fmt.Errorf("%d of %d members did not get the group key", len(late), len(g.ends))
	}
	if g.traced {
		// The mirror tree and the shadows follow the group from its
		// first message; nothing of the bootstrap is recorded.
		scratch := newRecorder(g.spec, true)
		g.rep.batch(scratch, -1, 0, plan, g.ks)
		g.replayShadows(scratch, -1, 0)
		if len(scratch.violations) > 0 {
			return fmt.Errorf("%s", scratch.violations[0])
		}
		g.sprev = g.sobs.Snapshot()
	}
	g.consumeEvents(rm.MsgID)
	g.lossy.Store(true)
	return nil
}

// close stops every client and the transport and waits for the receive
// goroutines to end.
func (g *wireGroup) close() {
	for _, e := range g.ends {
		e.c.Close()
	}
	g.cancel()
	g.srv.Close()
}

// awaitKeyed returns the live endpoints that still do not hold want
// after patience. The first pass is one lock per member; only
// stragglers are polled again, because polling a thousand members
// perturbs the run.
func (g *wireGroup) awaitKeyed(want keys.Key, patience time.Duration) []*endpoint {
	var pending []*endpoint
	for _, e := range g.ends {
		if !e.keyed(want) {
			pending = append(pending, e)
		}
	}
	deadline := time.Now().Add(patience)
	for len(pending) > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		still := pending[:0]
		for _, e := range pending {
			if !e.keyed(want) {
				still = append(still, e)
			}
		}
		pending = still
	}
	return pending
}

// consumeEvents returns the times at which members reported done for
// message msgID since the last call.
func (g *wireGroup) consumeEvents(msgID uint8) []time.Time {
	var done []time.Time
	for _, ev := range g.cobs.Events() {
		if ev.Seq < g.nextSeq {
			continue
		}
		g.nextSeq = ev.Seq + 1
		if ev.Kind == obs.EvMemberDone && ev.MsgID == msgID {
			done = append(done, ev.Time)
		}
	}
	return done
}

// clientRecv is the members' own count of packets ingested so far.
func (g *wireGroup) clientRecv() int64 {
	return g.cobs.CounterValue(obs.CEncRecv) + g.cobs.CounterValue(obs.CParityRecv) + g.cobs.CounterValue(obs.CUsrRecv)
}

// wireTurn is what one turn of the closed loop leaves behind for the
// code that reads it afterwards.
type wireTurn struct {
	idx  int
	plan churnPlan
	rm   *rekey.RekeyMessage
	st   *udptrans.Stats
	derr error // Distribute gave up

	// batch queued, batch closed, Rekey back, Distribute called and
	// back, stragglers given up on.
	tq, t0, t1, td, tdEnd, tEnd time.Time
	cpu                         time.Duration
	allocBytes, rekeyAllocBytes uint64

	gone []*endpoint // this turn's leavers
	late []*endpoint // live members that never got the key
	done []time.Time // when each member reported done

	// Summed over the live members' doors.
	rxPkts, rxBytes, dropped, usrSeen, usrUseful int64
	expectDrops                                  float64 // what the links' configured rates predict for dropped
	nacks                                        int
	nackSent0, recv0                             int64 // member-side counters when the turn began
}

// interval runs one rekey interval on the wire: close the batch, build
// the message, plumb joiners and leavers, distribute, and wait until
// the last live member holds the new key; then read what happened.
// idx counts warm-up too.
func (g *wireGroup) interval(ctx context.Context, idx int, rec *recorder) error {
	t, err := g.turn(ctx, idx)
	if err != nil {
		return err
	}
	g.record(rec, t)
	g.checkSample(rec, idx)
	for _, e := range t.gone {
		e.c.Close()
	}
	for _, e := range t.gone[:min(retainedLeavers, len(t.gone))] {
		if leaverLearnsKey(t.rm, g.ks.GroupKey(), e.c.Member) {
			rec.violate("interval %d: departed member %d recovered the new group key", idx, e.id)
		}
	}
	if g.traced {
		g.trace(ctx, rec, t)
	}
	return nil
}

// turn is the closed loop's body; nothing in it reads results.
func (g *wireGroup) turn(ctx context.Context, idx int) (*wireTurn, error) {
	joins, leaves := g.spec.churn(idx)
	t := &wireTurn{idx: idx, plan: g.roster.draw(joins, leaves, g.forced)}
	g.forced = nil
	// Joiners bind before the batch closes, as memberd does, so nothing
	// sent to them can be lost to a socket that is not there yet.
	conns := make([]*net.UDPConn, len(t.plan.joins))
	for i := range conns {
		var err error
		if conns[i], err = bindLoopback(); err != nil {
			return nil, err
		}
	}
	g.firstRetx.Store(0)
	for b := range g.parity {
		g.parity[b].Store(0)
	}
	for _, e := range g.ends {
		e.resetCounters()
	}
	t.nackSent0, t.recv0 = g.cobs.CounterValue(obs.CNACKSent), g.clientRecv()

	cpu0 := cpuTime()
	bytes0, _ := heapAllocs()
	t.tq = time.Now()
	for _, id := range t.plan.leaves {
		if err := g.ks.QueueLeave(id); err != nil {
			return nil, err
		}
	}
	for _, id := range t.plan.joins {
		if err := g.ks.QueueJoin(id); err != nil {
			return nil, err
		}
	}
	t.t0 = time.Now()
	rm, err := g.ks.Rekey()
	t.t1 = time.Now()
	if err != nil {
		return nil, fmt.Errorf("interval %d: Rekey: %w", idx, err)
	}
	t.rm = rm
	rbytes, _ := heapAllocs()

	// Sampled leavers hand their place in the sample to as many joiners.
	lostSamples := 0
	for _, id := range t.plan.leaves {
		t.gone = append(t.gone, g.ends[id])
		delete(g.ends, id)
		g.srv.RemoveMemberAddr(id)
		if g.sample[id] {
			delete(g.sample, id)
			lostSamples++
		}
	}
	for i, id := range t.plan.joins {
		if err := g.admit(id, conns[i], i < lostSamples); err != nil {
			return nil, err
		}
	}
	key := g.ks.GroupKey()
	g.want.Store(&key)

	t.td = time.Now()
	t.st, t.derr = g.srv.Distribute(ctx, rm, g.opts)
	t.tdEnd = time.Now()
	if t.derr != nil && (ctx.Err() != nil || t.st == nil) {
		return nil, t.derr
	}
	t.late = g.awaitKeyed(key, time.Second)
	t.tEnd = time.Now()
	t.cpu = cpuTime() - cpu0
	bytes1, _ := heapAllocs()
	t.allocBytes, t.rekeyAllocBytes = bytes1-bytes0, rbytes-bytes0

	t.done = g.consumeEvents(rm.MsgID)
	for _, e := range g.ends {
		rx := e.rxPkts.Load()
		t.rxPkts += rx
		t.expectDrops += float64(rx) * e.lossP
		t.rxBytes += e.rxBytes.Load()
		t.dropped += e.dropped.Load()
		t.usrSeen += e.usrSeen.Load()
		t.usrUseful += e.usrUseful.Load()
	}
	for _, n := range t.st.NACKsPerRound {
		t.nacks += n
	}
	return t, nil
}

// record folds one turn into the end-to-end accumulators.
func (g *wireGroup) record(rec *recorder, t *wireTurn) {
	live := len(g.ends)
	if keyed := live - len(t.late); len(t.done) > keyed {
		rec.violate("interval %d: %d members reported done, only %d hold the server's group key", t.idx, len(t.done), keyed)
	}
	last := t.tdEnd
	if len(t.done) > 0 {
		last = t.done[0]
	}
	retx := g.firstRetx.Load()
	for _, d := range t.done {
		rec.ttkMs = append(rec.ttkMs, ms(d.Sub(t.t0)))
		if d.After(last) {
			last = d
		}
		if retx == 0 || int64(d.Sub(g.epoch)) < retx {
			rec.keyedR1++
		}
	}
	rec.closeInterval()
	rec.attempted += live
	if t.derr != nil {
		// A distribution that gave up fails the interval for everyone,
		// whoever got the key meanwhile.
		rec.failed += live
	} else {
		rec.failed += len(t.late)
	}
	for _, e := range t.late {
		g.forced = append(g.forced, e.id)
	}
	rec.intervalMs = append(rec.intervalMs, ms(last.Sub(t.t0)))
	rec.rekeyMs = append(rec.rekeyMs, ms(t.t1.Sub(t.t0)))
	rec.turnMs = append(rec.turnMs, ms(t.tEnd.Sub(t.tq)))
	rec.cpuMs = append(rec.cpuMs, ms(t.cpu))
	rec.allocBytes += t.allocBytes

	rec.expectDrops += t.expectDrops
	rec.drops += float64(t.dropped)
	rec.rxDatagrams += float64(t.rxPkts)
	// Every datagram sent arrives: loopback loses nothing the kernel
	// does not count as a receive-buffer drop.
	rec.identity("datagrams at the clients' doors = (EncSent+ParitySent) x members + UsrSent",
		float64(t.rxPkts), float64(t.sentDatagrams(live)))
	rec.wireBytes = append(rec.wireBytes, float64(t.rxBytes)/float64(live))
	rec.sent += float64(t.st.EncSent + t.st.ParitySent)
	rec.real += float64(t.rm.NumRealPackets())
	if t.nacks > 0 {
		rec.nackIntervals++
	}
	if len(t.st.NACKsPerRound) > 0 {
		rec.nacks1 = append(rec.nacks1, float64(t.st.NACKsPerRound[0]))
	}
	rec.usrSent = append(rec.usrSent, float64(t.st.UsrSent))
}

func (t *wireTurn) sentDatagrams(members int) int64 {
	return int64(t.st.EncSent+t.st.ParitySent)*int64(members) + int64(t.st.UsrSent)
}

// trace records the turn's spans and per-layer numbers and runs the
// replays: the traced run's extra work, all of it after the turn.
func (g *wireGroup) trace(ctx context.Context, rec *recorder, t *wireTurn) {
	tr, lay, idx, st := rec.tr, rec.layer, t.idx, t.st
	// The root span is the driver's whole turn, which runs one NACK
	// window past the moment interval_ms stops at (the last member done).
	root := tr.add(stInterval, t.tq, t.tEnd, 0, idx, "")
	tr.add(stQueue, t.tq, t.t0, root, idx, "")
	rekeySpan := tr.add(stRekey, t.t0, t.t1, root, idx, "")
	distSpan := tr.add(stDistribute, t.td, t.tdEnd, root, idx, "")
	lay.add("rekey.rekey_ms_p95", ms(t.t1.Sub(t.t0)))
	lay.add("rekey.alloc_kb_per_interval", float64(t.rekeyAllocBytes)/1024)

	// Distribute's time is sends plus one RoundDur listening window per
	// entry of NACKsPerRound.
	dist := t.tdEnd.Sub(t.td)
	wait := time.Duration(len(st.NACKsPerRound)) * g.opts.RoundDur
	lay.add("udptrans.distribute_ms", ms(dist))
	lay.add("udptrans.wait_ms", ms(wait))
	lay.add("udptrans.busy_ms", ms(dist-wait))
	lay.add("udptrans.send_us_per_datagram", ratio(us(dist-wait), float64(t.sentDatagrams(len(g.ends)))))
	lay.add("udptrans.rounds", float64(st.Rounds))
	lay.add("udptrans.unicast_waves", float64(st.UnicastWaves))
	// A multicast round's window ends where the server's events say the
	// next round or the unicast phase began. Unicast waves emit no
	// event: a wave is a burst of sends and one window, so their windows
	// are laid back to back from the return.
	unicast := time.Duration(0)
	var windowEnds []time.Time
	events := g.sobs.Events()
	for _, ev := range events {
		if ev.MsgID != t.rm.MsgID || ev.Time.Before(t.td) {
			continue
		}
		switch {
		case ev.Kind == obs.EvRoundStart && ev.Round > 1:
			windowEnds = append(windowEnds, ev.Time)
		case ev.Kind == obs.EvSwitchToUnicast:
			unicast = t.tdEnd.Sub(ev.Time)
			windowEnds = append(windowEnds, ev.Time)
		}
	}
	for w := 0; w < max(1, st.UnicastWaves); w++ {
		windowEnds = append(windowEnds, t.tdEnd.Add(-time.Duration(w)*g.opts.RoundDur))
	}
	lay.add("udptrans.unicast_phase_ms", ms(unicast))
	for _, end := range windowEnds[:min(len(windowEnds), len(st.NACKsPerRound))] {
		tr.add(stNACKWait, end.Add(-g.opts.RoundDur), end, distSpan, idx, "")
	}

	scur := serverCounters(rec, g.sobs, g.sprev)
	d := func(name string) float64 { return float64(scur.Counters[name] - g.sprev.Counters[name]) }
	rec.identity("Stats.EncSent = obs enc_sent", float64(st.EncSent), d("enc_sent"))
	rec.identity("Stats.ParitySent = obs parity_sent", float64(st.ParitySent), d("parity_sent"))
	rec.identity("Stats.UsrSent = obs usr_sent", float64(st.UsrSent), d("usr_sent"))
	rec.identity("sum of Stats.NACKsPerRound = obs nack_recv", float64(t.nacks), d("nack_recv"))
	rec.identity("members' obs enc+parity+usr recv = datagrams at the door - injected drops",
		float64(g.clientRecv()-t.recv0), float64(t.rxPkts-t.dropped))
	lay.add("udptrans.nack_recv", d("nack_recv"))
	lay.add("udptrans.nack_ignored", d("nack_ignored"))
	lay.add("fec.encode_ms_per_interval", 1e3*(scur.Histograms["parity_encode_s"].Sum-g.sprev.Histograms["parity_encode_s"].Sum))
	g.sprev = scur
	lay.count("usr_seen", float64(t.usrSeen))
	lay.count("usr_useful", float64(t.usrUseful))
	lay.count("rx_datagrams", float64(t.rxPkts))
	lay.count("injected_drops", float64(t.dropped))
	lay.add("udptrans.client.rx_datagrams", float64(t.rxPkts))
	lay.add("udptrans.client.nack_sent", float64(g.cobs.CounterValue(obs.CNACKSent)-t.nackSent0))
	lay.add("udptrans.client.spurious_nacks", float64(g.spuriousNACKs(events, t.rm.MsgID, t.td)))
	for _, done := range t.done {
		lay.add("udptrans.client.time_to_key_ms_p50", ms(done.Sub(t.t0)))
	}

	tree := g.rep.batch(rec, idx, rekeySpan, t.plan, g.ks)
	g.rep.rekey(rec, idx, rekeySpan, t.rm, t.t1.Sub(t.t0), tree)
	counts := make([]int, t.rm.Blocks())
	for b := range counts {
		counts[b] = int(g.parity[b].Load())
	}
	g.rep.parity(ctx, rec, idx, distSpan, t.rm, counts)
	g.replayShadows(rec, idx, distSpan)
	for id := range g.sample {
		if cred, ok := g.ks.Credentials(id); ok {
			t0 := time.Now()
			if _, err := t.rm.WireUSR(cred.NodeID); err != nil {
				rec.violate("interval %d: WireUSR(%d): %v", idx, cred.NodeID, err)
			}
			lay.add("rekey.wire_usr_us", us(time.Since(t0)))
		}
	}
}

// spuriousNACKs counts the interval's accepted NACKs that no injected
// loss explains: each came from a member whose link dropped nothing
// this interval, so the member was starved, not lossy.
func (g *wireGroup) spuriousNACKs(events []obs.Event, msgID uint8, since time.Time) int {
	byNode := make(map[int]*endpoint, len(g.ends))
	for id, e := range g.ends {
		if cred, ok := g.ks.Credentials(id); ok {
			byNode[cred.NodeID] = e
		}
	}
	n := 0
	for _, ev := range events {
		if ev.Kind != obs.EvNACKReceived || ev.MsgID != msgID || ev.Time.Before(since) {
			continue
		}
		if e := byNode[ev.User]; e != nil && e.dropped.Load() == 0 {
			n++
		}
	}
	return n
}

// checkSample compares the sampled members' keys with the server's view
// of their paths.
func (g *wireGroup) checkSample(rec *recorder, idx int) {
	for id := range g.sample {
		e := g.ends[id]
		want, ok := g.ks.PathKeys(id)
		if e == nil || !ok {
			rec.violate("interval %d: sampled member %d is not in the group", idx, id)
			continue
		}
		if !e.keyed(g.ks.GroupKey()) {
			continue // counted as failed, not as a wrong key
		}
		if !holdsAll(e.c.Member.Keys(), want) {
			rec.violate("interval %d: member %d does not hold Server.PathKeys", idx, id)
		}
	}
}

// holdsAll reports whether have contains every key of want.
func holdsAll(have, want map[int]keys.Key) bool {
	for node, k := range want {
		if h, ok := have[node]; !ok || !h.Equal(k) {
			return false
		}
	}
	return true
}

// leaverLearnsKey feeds a departed member every ENC datagram of the
// message built after it left: forward secrecy says it must not come
// out holding the new group key.
func leaverLearnsKey(rm *rekey.RekeyMessage, key keys.Key, m *rekey.Member) bool {
	// Signature checks are not what keeps a leaver out; skip them.
	m.SetVerifier(nil)
	for i := range rm.ENC {
		if wire, err := rm.WireENC(i); err == nil {
			m.Ingest(wire) //nolint:errcheck // rejection is the expected outcome
		}
	}
	gk, ok := m.GroupKey()
	return ok && gk.Equal(key)
}

// replayShadows feeds each sampled member's surviving arrivals, in
// order, to its shadow: one member.Ingest span per datagram. The shadow
// saw what the live member saw, so it must hold the same keys.
func (g *wireGroup) replayShadows(rec *recorder, idx, cause int) {
	var before, after runtime.MemStats
	for id := range g.sample {
		e := g.ends[id]
		if e == nil || e.shadow == nil {
			continue
		}
		arrivals := e.takeArrivals()
		// ReadMemStats, unlike the cheap counters, is exact at this
		// grain; its stop-the-world is harmless after the interval.
		runtime.ReadMemStats(&before)
		var spent time.Duration
		for _, p := range arrivals {
			_, d, _ := timedIngest(rec, e.shadow, p, idx, cause) //nolint:errcheck // the live member got the same verdict; the keys are compared below
			spent += d
		}
		runtime.ReadMemStats(&after)
		rec.layer.count("ingest_allocs", float64(after.Mallocs-before.Mallocs))
		rec.layer.add("member.cpu_us_per_interval", us(spent))
		rec.layer.add("member.ingests_per_interval", float64(len(arrivals)))
		if e.verifier != nil {
			for _, p := range arrivals {
				if !authCheck(rec, e.verifier, p) {
					rec.violate("interval %d: a datagram member %d received does not prove into the signed root", idx, id)
					break
				}
			}
		}
		live, shadow := e.c.Member.Keys(), e.shadow.Keys()
		if len(live) != len(shadow) || !holdsAll(live, shadow) {
			rec.violate("interval %d: shadow of member %d ended with different keys", idx, id)
		}
	}
}
