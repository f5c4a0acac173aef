package experiments

// Ablations for the design choices DESIGN.md calls out: the
// user-oriented key assignment (vs the encryption-oriented baseline it
// replaced) and the interleaved send order (vs sequential).

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "abl-uka-baseline",
		Paper: "Section 4 design rationale",
		Desc:  "UKA vs encryption-oriented baseline: one-round failure rate and packets sent",
		Run:   runAblUKA,
	})
	register(Experiment{
		ID:    "abl-interleave",
		Paper: "Section 5.1 design rationale",
		Desc:  "interleaved vs sequential send order under burst loss",
		Run:   runAblInterleave,
	})
}

// runAblUKA measures, for one multicast round with rho=1 and no FEC
// recovery, the fraction of users left wanting under (a) UKA (each user
// needs exactly one packet, some encryptions duplicated) and (b) the
// encryption-oriented baseline (no duplicates, users need up to
// tree-height packets). The paper's motivation for UKA is exactly this
// gap; its price is the duplication overhead, reported as packet counts.
func runAblUKA(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	fail := &stats.Figure{
		ID:     "ABL-UKA-fail",
		Title:  fmt.Sprintf("one-round failure fraction, UKA vs encryption-oriented baseline (N=%d, L=N/4, rho=1)", n),
		XLabel: "alpha", YLabel: "fraction of users missing keys after round 1",
	}
	cost := &stats.Figure{
		ID:     "ABL-UKA-cost",
		Title:  "packets per rekey message (the price of user orientation)",
		XLabel: "alpha", YLabel: "ENC packets",
	}
	sUKA := fail.NewSeries("UKA")
	sBase := fail.NewSeries("baseline")
	cUKA := cost.NewSeries("UKA")
	cBase := cost.NewSeries("baseline")

	gen, err := workload.NewGenerator(n, 4, o.Seed)
	if err != nil {
		return nil, err
	}
	for _, alpha := range alphaSweep(o.Quick) {
		star := netsim.StarConfig{
			N: n - n/4, Alpha: alpha,
			PHigh: 0.20, PLow: 0.02, PSource: 0.01, Seed: o.Seed ^ 0xab1,
		}
		net, err := netsim.NewStar(star)
		if err != nil {
			return nil, err
		}
		var failUKA, failBase, pktUKA, pktBase stats.Accumulator
		for m := 0; m < o.Messages; m++ {
			res, plan, err := gen.Batch(0, n/4)
			if err != nil {
				return nil, err
			}
			base, err := assign.BuildBaseline(res, assign.Capacity)
			if err != nil {
				return nil, err
			}
			pktUKA.AddInt(len(plan.Packets))
			pktBase.AddInt(len(base.Packets))

			// One shared delivery trial: send max(|UKA|,|base|) packet
			// slots; packet i of either scheme is lost for user u iff
			// slot i is lost (both schemes face identical loss).
			slots := max(len(plan.Packets), len(base.Packets))
			times := make([]float64, slots)
			for i := range times {
				times[i] = float64(m*slots+i) * 0.1
			}
			rd := net.MulticastRound(times)
			nUsers := len(res.UserIDs)
			fU, fB := 0, 0
			for ui, nodeID := range res.UserIDs {
				got := map[int]bool{}
				for _, idx := range rd.Received(nil, ui) {
					got[idx] = true
				}
				if pi, ok := plan.UserPacket[nodeID]; ok && !got[pi] {
					fU++
				}
				for _, pi := range base.UserPackets[nodeID] {
					if !got[pi] {
						fB++
						break
					}
				}
			}
			failUKA.Add(float64(fU) / float64(nUsers))
			failBase.Add(float64(fB) / float64(nUsers))
		}
		sUKA.Add(alpha, failUKA.Mean())
		sBase.Add(alpha, failBase.Mean())
		cUKA.Add(alpha, pktUKA.Mean())
		cBase.Add(alpha, pktBase.Mean())
	}
	return []*stats.Figure{fail, cost}, nil
}

// runAblInterleave compares the default interleaved send order with a
// sequential order under the bursty loss model: sequential sends place
// same-block shards 100 ms apart, inside one mean burst, so a burst
// claims several shards of one block and recovery needs more parity.
func runAblInterleave(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	fig := &stats.Figure{
		ID:     "ABL-ILV",
		Title:  fmt.Sprintf("interleaved vs sequential send order (N=%d, L=N/4, k=10, rho=1)", n),
		XLabel: "alpha", YLabel: "avg server bandwidth overhead",
	}
	nfig := &stats.Figure{
		ID:     "ABL-ILV-nacks",
		Title:  "first-round NACKs, interleaved vs sequential",
		XLabel: "alpha", YLabel: "avg # NACKs (round 1)",
	}
	for _, seq := range []bool{false, true} {
		label := "interleaved"
		if seq {
			label = "sequential"
		}
		s := fig.NewSeries(label)
		sn := nfig.NewSeries(label)
		for _, alpha := range alphaSweep(o.Quick) {
			c := transport(o, n, alpha, 1)
			c.SequentialSend = seq
			ms, err := runTransport(c)
			if err != nil {
				return nil, err
			}
			s.Add(alpha, meanOver(ms, 0, overhead))
			sn.Add(alpha, meanOver(ms, 0, round1NACKs))
		}
	}
	return []*stats.Figure{fig, nfig}, nil
}
