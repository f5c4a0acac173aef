package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/obs"
)

// buildGroup is a key server with no transport: each interval stops at
// the materialised round-one datagrams. A sample of in-process members
// ingests its own datagram of every interval once the interval's clocks
// have stopped, which checks the output; the moment that datagram was
// materialised is the member's time-to-key on these workloads.
type buildGroup struct {
	spec   *spec
	seed   uint64
	traced bool

	ks   *rekey.Server
	sobs *obs.Registry // nil in the untraced run
	rep  *replayer

	roster *roster
	sample map[rekey.MemberID]*rekey.Member
	usrRng *rand.Rand
	sprev  obs.Snapshot
	buf    []byte // one PARITY datagram, reused
	// When the interval's batch closed and when each of its ENC datagrams
	// existed (empty before the first interval); ready is reused.
	closed time.Time
	ready  []time.Time
	// verifier stands for a member's RootVerifier in the traced run: it
	// sees every ENC datagram of every interval.
	verifier *keys.RootVerifier
}

// setupBuild builds the server and its n-member group and keys the
// sample from the bootstrap message.
func setupBuild(s *spec, seed uint64, traced bool, signer *keys.Signer) (*buildGroup, error) {
	g := &buildGroup{
		spec: s, seed: seed, traced: traced,
		roster: newRoster(s.n, seed),
		sample: make(map[rekey.MemberID]*rekey.Member, sampleSize),
		usrRng: newRand(seed, laneUSR),
	}
	opts := serverOptions(s, seed, signer)
	var err error
	if traced {
		g.sobs = obs.New()
		opts = append(opts, rekey.WithObs(g.sobs))
		if g.rep, err = newReplayer(s, seed, signer); err != nil {
			return nil, err
		}
	}
	if g.ks, err = rekey.NewServer(opts...); err != nil {
		return nil, err
	}
	if pub := g.ks.SignerPublic(); traced && pub != nil {
		g.verifier = keys.NewRootVerifier(pub)
	}
	plan, rm, err := firstBatch(g.ks, g.roster)
	if err != nil {
		return nil, err
	}
	for id := range pickSample(seed, plan.joins) {
		if err := g.enrol(id); err != nil {
			return nil, err
		}
	}
	scratch := newRecorder(s, traced)
	for id := range g.sample {
		if !g.feedOwn(scratch, -1, rm, id) {
			return nil, fmt.Errorf("bootstrap: sampled member %d did not get the group key", id)
		}
	}
	if traced {
		g.rep.batch(scratch, -1, 0, plan, g.ks)
		g.sprev = g.sobs.Snapshot()
	}
	if len(scratch.violations) > 0 {
		return nil, fmt.Errorf("bootstrap: %s", scratch.violations[0])
	}
	return g, nil
}

// close has nothing to release: no sockets, no goroutines.
func (g *buildGroup) close() {}

// enrol creates the in-process member of a sampled group member from
// its credentials.
func (g *buildGroup) enrol(id rekey.MemberID) error {
	cred, ok := g.ks.Credentials(id)
	if !ok {
		return fmt.Errorf("member %d has no credentials after Rekey", id)
	}
	m, err := rekey.NewMember(cred)
	if err != nil {
		return err
	}
	if pub := g.ks.SignerPublic(); pub != nil {
		m.SetVerifier(keys.NewRootVerifier(pub))
	}
	g.sample[id] = m
	return nil
}

// feedOwn hands a sampled member the one ENC datagram addressed to it
// and reports whether it now holds the server's group key. The spans it
// records have no cause: the ingest is the harness's check, made after
// the interval.
func (g *buildGroup) feedOwn(rec *recorder, idx int, rm *rekey.RekeyMessage, id rekey.MemberID) bool {
	cred, ok := g.ks.Credentials(id)
	if !ok {
		return false
	}
	pi, ok := rm.Plan.UserPacket[cred.NodeID]
	if !ok {
		return false
	}
	wire, err := rm.WireENC(pi)
	if err != nil {
		return false
	}
	m := g.sample[id]
	res, spent, err := timedIngest(rec, m, wire, idx, 0)
	rec.layer.add("member.ingests_per_interval", 1)
	rec.layer.add("member.cpu_us_per_interval", us(spent))
	if err != nil || !res.Done {
		return false
	}
	gk, ok := m.GroupKey()
	if !ok || !gk.Equal(g.ks.GroupKey()) {
		rec.violate("interval %d: member %d reports done with a group key different from the server's", idx, id)
		return false
	}
	if pi < len(g.ready) {
		rec.ttkMs = append(rec.ttkMs, ms(g.ready[pi].Sub(g.closed)))
	}
	return true
}

// interval runs one rekey interval up to the wire: queue the batch,
// Rekey, precompute parity for rho, then materialise every round-one
// datagram and the USR datagrams of a seeded share of users. Nothing
// between tq and tEnd is the harness's own work but a clock reading per
// ENC datagram.
func (g *buildGroup) interval(ctx context.Context, idx int, rec *recorder) error {
	joins, leaves := g.spec.churn(idx)
	plan := g.roster.draw(joins, leaves, nil)
	k := g.spec.tuning().K
	pro := blockplan.ProactiveParity(k, g.spec.rho)

	cpu0 := cpuTime()
	bytes0, _ := heapAllocs()
	tq := time.Now()
	for _, id := range plan.leaves {
		if err := g.ks.QueueLeave(id); err != nil {
			return err
		}
	}
	for _, id := range plan.joins {
		if err := g.ks.QueueJoin(id); err != nil {
			return err
		}
	}
	t0 := time.Now()
	rm, err := g.ks.Rekey()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("interval %d: Rekey: %w", idx, err)
	}
	rbytes, _ := heapAllocs()

	counts := make([]int, rm.Blocks())
	for b := range counts {
		counts[b] = pro
	}
	tp := time.Now()
	if err := rm.PrecomputeParity(ctx, counts, 0); err != nil {
		return fmt.Errorf("interval %d: PrecomputeParity: %w", idx, err)
	}
	tw := time.Now()

	// Round one, in send order.
	g.closed, g.ready = t0, slices.Grow(g.ready[:0], len(rm.ENC))[:len(rm.ENC)]
	clear(g.ready)
	wireBytes, datagrams := 0, 0
	for _, r := range blockplan.RoundOne(rm.Part, g.spec.rho) {
		if r.IsParity(k) {
			if g.buf, err = rm.AppendWireParity(g.buf[:0], r.Block, r.Shard-k); err != nil {
				return fmt.Errorf("interval %d: AppendWireParity: %w", idx, err)
			}
			wireBytes += len(g.buf)
		} else {
			i := r.Block*k + r.Shard
			wire, err := rm.WireENC(i)
			if err != nil {
				return fmt.Errorf("interval %d: WireENC: %w", idx, err)
			}
			wireBytes += len(wire)
			g.ready[i] = time.Now()
		}
		datagrams++
	}
	tu := time.Now()
	usr := 0
	for _, uid := range rm.Result.UserIDs {
		if g.usrRng.Float64() >= usrShare {
			continue
		}
		if _, err := rm.WireUSR(uid); err != nil {
			return fmt.Errorf("interval %d: WireUSR(%d): %w", idx, uid, err)
		}
		usr++
	}
	tEnd := time.Now()
	cpu1 := cpuTime()
	bytes1, _ := heapAllocs()

	// The clocks have stopped; the rest is the harness reading the result.
	// Sampled leavers stay behind for the forward-secrecy check, as many
	// joiners take their places, and every sampled member ingests its own
	// datagram.
	var gone []*rekey.Member
	var goneIDs []rekey.MemberID
	for _, id := range plan.leaves {
		if m := g.sample[id]; m != nil {
			delete(g.sample, id)
			gone = append(gone, m)
			goneIDs = append(goneIDs, id)
		}
	}
	for i := 0; len(g.sample) < sampleSize && i < len(plan.joins); i++ {
		if err := g.enrol(plan.joins[i]); err != nil {
			return err
		}
	}
	keyed := 0
	for id := range g.sample {
		if g.feedOwn(rec, idx, rm, id) {
			keyed++
		}
	}

	live := len(g.sample)
	rec.closeInterval()
	rec.intervalMs = append(rec.intervalMs, ms(tEnd.Sub(t0)))
	rec.rekeyMs = append(rec.rekeyMs, ms(t1.Sub(t0)))
	rec.turnMs = append(rec.turnMs, ms(tEnd.Sub(tq)))
	rec.cpuMs = append(rec.cpuMs, ms(cpu1-cpu0))
	rec.allocBytes += bytes1 - bytes0
	rec.wireBytes = append(rec.wireBytes, float64(wireBytes))
	rec.sent += float64(datagrams)
	rec.real += float64(rm.NumRealPackets())
	rec.keyedR1 += keyed
	rec.attempted += live
	rec.failed += live - keyed
	rec.nacks1 = append(rec.nacks1, 0)
	rec.usrSent = append(rec.usrSent, float64(usr))

	for id, m := range g.sample {
		want, ok := g.ks.PathKeys(id)
		if !ok || !holdsAll(m.Keys(), want) {
			rec.violate("interval %d: member %d does not hold Server.PathKeys", idx, id)
		}
	}
	key := g.ks.GroupKey()
	for i, m := range gone[:min(retainedLeavers, len(gone))] {
		if leaverLearnsKey(rm, key, m) {
			rec.violate("interval %d: departed member %d recovered the new group key", idx, goneIDs[i])
		}
	}

	if !g.traced {
		return nil
	}
	tr, lay := rec.tr, rec.layer
	root := tr.add(stInterval, tq, tEnd, 0, idx, "")
	tr.add(stQueue, tq, t0, root, idx, "")
	rekeySpan := tr.add(stRekey, t0, t1, root, idx, "")
	paritySpan := tr.add(stParity, tp, tw, root, idx, "")
	tr.add(stWire, tw, tu, root, idx, "")
	tr.add(stWireUSR, tu, tEnd, root, idx, "")
	lay.add("rekey.rekey_ms_p95", ms(t1.Sub(t0)))
	lay.add("rekey.alloc_kb_per_interval", float64(rbytes-bytes0)/1024)
	lay.add("fec.encode_ms_per_interval", ms(tw.Sub(tp)))
	lay.add("rekey.wire_materialize_ms", ms(tu.Sub(tw)))
	lay.add("rekey.wire_usr_us", ratio(us(tEnd.Sub(tu)), float64(usr)))
	g.sprev = serverCounters(rec, g.sobs, g.sprev)

	tree := g.rep.batch(rec, idx, rekeySpan, plan, g.ks)
	g.rep.rekey(rec, idx, rekeySpan, rm, t1.Sub(t0), tree)
	g.rep.parity(ctx, rec, idx, paritySpan, rm, counts)
	if g.verifier != nil {
		// What a member that received the whole round would check.
		for i := range rm.ENC {
			if wire, err := rm.WireENC(i); err != nil || !authCheck(rec, g.verifier, wire) {
				rec.violate("interval %d: ENC %d does not prove into the signed root", idx, i)
				break
			}
		}
	}
	return nil
}
