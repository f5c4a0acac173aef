package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/stats"
	"repro/internal/workload"
)

// batchPoint runs `trials` independent (J,L) batches on an N-user tree
// and returns the mean ENC packet count and mean duplication overhead.
func batchPoint(n, j, l, trials int, seed uint64) (encPkts, dupOverhead float64, err error) {
	gen, err := workload.NewGenerator(n, 4, seed)
	if err != nil {
		return 0, 0, err
	}
	var pkts, dup stats.Accumulator
	for t := 0; t < trials; t++ {
		_, plan, err := gen.Batch(j, l)
		if err != nil {
			return 0, 0, err
		}
		pkts.AddInt(len(plan.Packets))
		dup.Add(plan.DuplicationOverhead())
	}
	return pkts.Mean(), dup.Mean(), nil
}

func init() {
	register(Experiment{
		ID:    "f6-enc-grid",
		Paper: "Fig. 6 (middle)",
		Desc:  "average number of ENC packets as a function of J and L, N=4096",
		Run:   runF6Grid,
	})
	register(Experiment{
		ID:    "f6-enc-vs-n",
		Paper: "Fig. 6 (right)",
		Desc:  "average number of ENC packets as a function of N",
		Run:   runF6VsN,
	})
	register(Experiment{
		ID:    "f7-dup-grid",
		Paper: "Fig. 7 (left)",
		Desc:  "average duplication overhead as a function of J and L, N=4096",
		Run:   runF7Grid,
	})
	register(Experiment{
		ID:    "f7-dup-vs-n",
		Paper: "Fig. 7 (right)",
		Desc:  "average duplication overhead as a function of N",
		Run:   runF7VsN,
	})
	register(Experiment{
		ID:    "a-enc-analysis",
		Paper: "companion analysis (SIGCOMM 2001)",
		Desc:  "expected encryptions: closed form vs marking-algorithm simulation",
		Run:   runEncAnalysis,
	})
}

func gridValues(n int, quick bool) []int {
	if quick {
		return []int{0, n / 4, n / 2, n}
	}
	step := n / 8
	vals := make([]int, 0, 9)
	for v := 0; v <= n; v += step {
		vals = append(vals, v)
	}
	return vals
}

func runF6Grid(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := 4096
	trials := 5
	if o.Quick {
		n, trials = 1024, 2
	}
	figP := &stats.Figure{ID: "F6m", Title: fmt.Sprintf("avg # ENC packets vs (J,L), N=%d, d=4", n), XLabel: "L", YLabel: "avg # ENC packets"}
	for _, j := range gridValues(n, o.Quick) {
		s := figP.NewSeries(fmt.Sprintf("J=%d", j))
		for _, l := range gridValues(n, o.Quick) {
			pkts, _, err := batchPoint(n, j, l, trials, o.Seed+uint64(j*31+l))
			if err != nil {
				return nil, err
			}
			s.Add(float64(l), pkts)
		}
	}
	return []*stats.Figure{figP}, nil
}

func runF7Grid(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := 4096
	trials := 5
	if o.Quick {
		n, trials = 1024, 2
	}
	fig := &stats.Figure{ID: "F7l", Title: fmt.Sprintf("avg duplication overhead vs (J,L), N=%d, d=4", n), XLabel: "L", YLabel: "avg duplication overhead"}
	for _, j := range gridValues(n, o.Quick) {
		s := fig.NewSeries(fmt.Sprintf("J=%d", j))
		for _, l := range gridValues(n, o.Quick) {
			_, dup, err := batchPoint(n, j, l, trials, o.Seed+uint64(j*37+l))
			if err != nil {
				return nil, err
			}
			s.Add(float64(l), dup)
		}
	}
	return []*stats.Figure{fig}, nil
}

func nSweep(quick bool) []int {
	if quick {
		return []int{16, 64, 256, 1024}
	}
	return []int{16, 64, 256, 1024, 4096, 16384}
}

func runF6VsN(o Options) ([]*stats.Figure, error) {
	return runVsN(o, "F6r", "avg # ENC packets vs N", "avg # ENC packets", func(p, d float64) float64 { return p })
}

func runF7VsN(o Options) ([]*stats.Figure, error) {
	return runVsN(o, "F7r", "avg duplication overhead vs N", "avg duplication overhead", func(p, d float64) float64 { return d })
}

func runVsN(o Options, id, title, ylabel string, pick func(pkts, dup float64) float64) ([]*stats.Figure, error) {
	o = o.fill()
	trials := 5
	if o.Quick {
		trials = 2
	}
	fig := &stats.Figure{ID: id, Title: title + ", d=4", XLabel: "N", YLabel: ylabel}
	combos := []struct {
		label string
		jl    func(n int) (int, int)
	}{
		{"J=0, L=N/4", func(n int) (int, int) { return 0, n / 4 }},
		{"J=N/4, L=N/4", func(n int) (int, int) { return n / 4, n / 4 }},
		{"J=N/4, L=0", func(n int) (int, int) { return n / 4, 0 }},
	}
	for _, c := range combos {
		s := fig.NewSeries(c.label)
		for _, n := range nSweep(o.Quick) {
			j, l := c.jl(n)
			pkts, dup, err := batchPoint(n, j, l, trials, o.Seed+uint64(n+j))
			if err != nil {
				return nil, err
			}
			s.Add(float64(n), pick(pkts, dup))
		}
	}
	return []*stats.Figure{fig}, nil
}

func runEncAnalysis(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := 4096
	trials := 8
	if o.Quick {
		n, trials = 256, 4
	}
	fig := &stats.Figure{
		ID:     "A-ENC",
		Title:  fmt.Sprintf("expected encryptions for L of N=%d leaves: closed form vs marking algorithm", n),
		XLabel: "L", YLabel: "encryptions",
	}
	closed := fig.NewSeries("closed form")
	sim := fig.NewSeries("marking algorithm (simulated)")
	gen, err := workload.NewGenerator(n, 4, o.Seed)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.02, 0.0625, 0.125, 0.25, 0.5, 0.75, 0.9375} {
		l := int(frac * float64(n))
		want, err := analysis.ExpectedEncryptionsLeave(n, 4, l)
		if err != nil {
			return nil, err
		}
		closed.Add(float64(l), want)
		var acc stats.Accumulator
		for t := 0; t < trials; t++ {
			res, _, err := gen.Batch(0, l)
			if err != nil {
				return nil, err
			}
			acc.AddInt(len(res.Encryptions))
		}
		sim.Add(float64(l), acc.Mean())
	}
	return []*stats.Figure{fig}, nil
}
