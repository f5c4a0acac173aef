package experiments

// The SIGCOMM paper's headline motivation for periodic batch rekeying:
// processing J joins and L leaves as one batch costs far fewer
// encryptions -- and exactly one signing -- compared with rekeying after
// every request. These experiments quantify both, and sweep the key
// tree degree the system fixes at 4.

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "a-batch-vs-individual",
		Paper: "batch rekeying motivation (SIGCOMM 2001 / WWW10)",
		Desc:  "encryptions and signings: one batch vs per-request rekeying",
		Run:   runBatchVsIndividual,
	})
	register(Experiment{
		ID:    "a-degree-sweep",
		Paper: "key tree degree discussion (SIGCOMM 2001)",
		Desc:  "rekey message size vs key tree degree d",
		Run:   runDegreeSweep,
	})
}

// runBatchVsIndividual compares, for growing churn L (J=L), the total
// encryptions of a single batch against the sum over L individual
// leave-rekeys followed by L individual join-rekeys, plus the signing
// counts (1 vs 2L).
func runBatchVsIndividual(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := 4096
	trials := 4
	if o.Quick {
		n, trials = 512, 2
	}
	enc := &stats.Figure{
		ID:     "A-BATCH-enc",
		Title:  fmt.Sprintf("total encryptions: one batch vs per-request rekeying (N=%d, J=L)", n),
		XLabel: "requests L (=J)", YLabel: "encryptions",
	}
	sign := &stats.Figure{
		ID:     "A-BATCH-sign",
		Title:  "signing operations per interval",
		XLabel: "requests L (=J)", YLabel: "signings",
	}
	sb := enc.NewSeries("batch")
	si := enc.NewSeries("individual")
	gb := sign.NewSeries("batch")
	gi := sign.NewSeries("individual")

	fracs := []float64{0.01, 0.05, 0.125, 0.25, 0.5}
	if o.Quick {
		fracs = []float64{0.05, 0.25}
	}
	for _, frac := range fracs {
		l := int(frac * float64(n))
		if l < 1 {
			l = 1
		}
		var batch, indiv stats.Accumulator
		for trial := 0; trial < trials; trial++ {
			seed := o.Seed + uint64(l*7+trial)
			// Batch: one message for J=L joins + L leaves.
			gen, err := workload.NewGenerator(n, 4, seed)
			if err != nil {
				return nil, err
			}
			res, _, err := gen.Batch(l, l)
			if err != nil {
				return nil, err
			}
			batch.AddInt(len(res.Encryptions))

			// Individual: same membership change as 2L single-request
			// batches on a live tree.
			tr := keytree.New(4, keys.NewDeterministicGenerator(seed^0x1d1))
			joins := make([]keytree.Member, n)
			for i := range joins {
				joins[i] = keytree.Member(i)
			}
			if _, err := tr.ProcessBatch(joins, nil); err != nil {
				return nil, err
			}
			total := 0
			members := tr.Members()
			for i := 0; i < l; i++ {
				r, err := tr.ProcessBatch(nil, []keytree.Member{members[i*3%len(members)]})
				if err != nil {
					return nil, err
				}
				total += len(r.Encryptions)
			}
			for i := 0; i < l; i++ {
				r, err := tr.ProcessBatch([]keytree.Member{keytree.Member(n + 1000 + i)}, nil)
				if err != nil {
					return nil, err
				}
				total += len(r.Encryptions)
			}
			indiv.AddInt(total)
		}
		sb.Add(float64(l), batch.Mean())
		si.Add(float64(l), indiv.Mean())
		gb.Add(float64(l), 1)
		gi.Add(float64(l), float64(2*l))
	}
	return []*stats.Figure{enc, sign}, nil
}

// runDegreeSweep measures rekey message size (encryptions and ENC
// packets) across tree degrees at fixed N and churn. The paper fixes
// d=4, the known sweet spot for LKH: small d means tall trees (many
// levels to re-key), large d means wide updates (d encryptions per
// changed node).
func runDegreeSweep(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := 4096
	trials := 5
	if o.Quick {
		n, trials = 1024, 2
	}
	fig := &stats.Figure{
		ID:     "A-DEG",
		Title:  fmt.Sprintf("rekey message size vs key tree degree (N=%d, J=0, L=N/4)", n),
		XLabel: "degree d", YLabel: "count",
	}
	se := fig.NewSeries("encryptions")
	sp := fig.NewSeries("ENC packets")
	for _, d := range []int{2, 3, 4, 6, 8, 16} {
		gen, err := workload.NewGenerator(n, d, o.Seed+uint64(d))
		if err != nil {
			return nil, err
		}
		var encs, pkts stats.Accumulator
		for t := 0; t < trials; t++ {
			res, plan, err := gen.Batch(0, n/4)
			if err != nil {
				return nil, err
			}
			encs.AddInt(len(res.Encryptions))
			pkts.AddInt(len(plan.Packets))
		}
		se.Add(float64(d), encs.Mean())
		sp.Add(float64(d), pkts.Mean())
	}
	return []*stats.Figure{fig}, nil
}
