package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/vsim"
)

func init() {
	register(Experiment{ID: "f8-bw-vs-k", Paper: "Fig. 8 (left)", Desc: "server bandwidth overhead vs block size k, rho=1", Run: runF8Bandwidth})
	register(Experiment{ID: "f8-enctime-vs-k", Paper: "Fig. 8 (right)", Desc: "relative overall FEC encoding time vs block size k, rho=1", Run: runF8EncTime})
	register(Experiment{ID: "f9-nacks-vs-rho", Paper: "Fig. 9 (left)", Desc: "average first-round NACKs vs proactivity factor", Run: runF9NACKs})
	register(Experiment{ID: "f9-rounds-vs-rho", Paper: "Fig. 9 (right)", Desc: "average rounds for all users to receive vs proactivity factor", Run: runF9Rounds})
	register(Experiment{ID: "f10-user-rounds", Paper: "Fig. 10 (left)", Desc: "fraction of users needing a given number of rounds", Run: runF10UserRounds})
	register(Experiment{ID: "f10-bw-vs-rho", Paper: "Fig. 10 (right)", Desc: "average server bandwidth overhead vs proactivity factor", Run: runF10Bandwidth})
	register(Experiment{ID: "f12-rho-trace", Paper: "Fig. 12", Desc: "adaptive proactivity factor trajectory over rekey messages", Run: runF12RhoTrace})
	register(Experiment{ID: "f13-nack-trace", Paper: "Fig. 13", Desc: "first-round NACKs per rekey message under adaptive rho", Run: runF13NACKTrace})
	register(Experiment{ID: "f14-nack-target-sweep", Paper: "Fig. 14", Desc: "NACK traces for different numNACK targets", Run: runF14TargetSweep})
	register(Experiment{ID: "f15-nack-vs-k", Paper: "Fig. 15", Desc: "NACK traces for different block sizes under adaptive rho", Run: runF15NACKvsK})
	register(Experiment{ID: "f16-bw-vs-k-alpha", Paper: "Fig. 16 (left)", Desc: "bandwidth overhead vs k under adaptive rho, per alpha", Run: runF16Alpha})
	register(Experiment{ID: "f16-bw-vs-k-n", Paper: "Fig. 16 (right)", Desc: "bandwidth overhead vs k under adaptive rho, per group size", Run: runF16N})
	register(Experiment{ID: "f17-server-rounds", Paper: "Fig. 17 (left)", Desc: "average rounds for all users vs k, adaptive rho", Run: runF17Server})
	register(Experiment{ID: "f17-user-rounds", Paper: "Fig. 17 (right)", Desc: "average rounds needed by a user vs k, adaptive rho", Run: runF17User})
	register(Experiment{ID: "f18-latency-vs-numnack", Paper: "Fig. 18 (left)", Desc: "average user rounds vs numNACK", Run: runF18Latency})
	register(Experiment{ID: "f18-bw-vs-numnack", Paper: "Fig. 18 (right)", Desc: "average server bandwidth overhead vs numNACK", Run: runF18Bandwidth})
	register(Experiment{ID: "f19-adaptive-extra-alpha", Paper: "Fig. 19", Desc: "extra bandwidth of adaptive rho vs rho=1, per alpha", Run: runF19})
	register(Experiment{ID: "f20-adaptive-extra-n", Paper: "Fig. 20", Desc: "extra bandwidth of adaptive rho vs rho=1, per group size", Run: runF20})
	register(Experiment{ID: "f21-deadline-trace", Paper: "Fig. 21", Desc: "deadline misses and numNACK adaptation over 100 messages", Run: runF21})
}

func alphaSweep(quick bool) []float64 {
	if quick {
		return []float64{0, 0.2}
	}
	return []float64{0, 0.2, 0.4, 1.0}
}

func kSweep(quick bool) []int {
	if quick {
		return []int{1, 10, 50}
	}
	return []int{1, 2, 5, 10, 15, 20, 30, 40, 50}
}

func rhoSweep(quick bool) []float64 {
	if quick {
		return []float64{1.0, 1.6, 2.2, 3.0}
	}
	return []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.6, 3.0}
}

func defaultN(quick bool) int {
	if quick {
		return 1024
	}
	return 4096
}

func numNACKSweep(quick bool) []int {
	if quick {
		return []int{0, 20, 100}
	}
	return []int{0, 5, 10, 20, 40, 60, 80, 100}
}

// warmup is how many leading messages adaptive-rho averages skip so the
// controller has settled (Fig. 12 shows settling within ~5 messages).
const warmup = 5

// fitsWire reports whether an N-user group at block size k keeps its
// block IDs within the v1 wire's 8 bits. At k=1 and N >= 8192 the
// message admitting the group has more than 256 one-packet blocks; those
// points wait for wider block IDs (ROADMAP 5(b)).
func fitsWire(n, k int) bool { return k > 1 || n <= 4096 }

// The per-message quantities the figures plot.
var (
	overhead   = (*vsim.Metrics).BandwidthOverhead
	userRounds = (*vsim.Metrics).AvgUserRounds
)

func round1NACKs(m *vsim.Metrics) float64 { return float64(m.Round1NACKs) }
func mcastRounds(m *vsim.Metrics) float64 { return float64(m.MulticastRounds) }

func labels[T any](format string, vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

func floats(vs []int) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// adaptive configures an adaptive-rho run.
func adaptive(o Options, n, k int, alpha, initRho float64, numNACK int) transportConfig {
	c := transport(o, n, alpha, initRho)
	c.K, c.AdaptiveRho, c.NumNACK = k, true, numNACK
	return c
}

// sweep adds to fig a series per label with a point per x: the mean of
// y over the messages tc(series, x) runs, from message skip on. Points
// the v1 wire cannot carry are left out.
func sweep(fig *stats.Figure, labels []string, xs []float64, skip int, y func(*vsim.Metrics) float64, tc func(series int, x float64) transportConfig) ([]*stats.Figure, error) {
	for si, label := range labels {
		s := fig.NewSeries(label)
		for _, x := range xs {
			c := tc(si, x)
			if !fitsWire(c.N, c.K) {
				continue
			}
			ms, err := runTransport(c)
			if err != nil {
				return nil, err
			}
			s.Add(x, meanOver(ms, skip, y))
		}
	}
	return []*stats.Figure{fig}, nil
}

// rhoTraces builds one figure per initial rho, 1 and 2, each with a
// series per label: y of every message tc(initRho, series) runs.
func rhoTraces(id string, title func(initRho float64) string, ylabel string, labels []string, y func(*vsim.Metrics) float64, tc func(initRho float64, series int) transportConfig) ([]*stats.Figure, error) {
	var figs []*stats.Figure
	for _, initRho := range []float64{1.0, 2.0} {
		fig := &stats.Figure{ID: fmt.Sprintf("%s-init%g", id, initRho), Title: title(initRho), XLabel: "rekey message ID", YLabel: ylabel}
		for si, label := range labels {
			ms, err := runTransport(tc(initRho, si))
			if err != nil {
				return nil, err
			}
			s := fig.NewSeries(label)
			for i, m := range ms {
				s.Add(float64(i), y(m))
			}
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

func runF8Bandwidth(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n, alphas := defaultN(o.Quick), alphaSweep(o.Quick)
	fig := &stats.Figure{ID: "F8l", Title: fmt.Sprintf("server bandwidth overhead vs k (rho=1, N=%d, L=N/4)", n), XLabel: "k", YLabel: "avg server bandwidth overhead"}
	return sweep(fig, labels("alpha=%g", alphas), floats(kSweep(o.Quick)), 0, overhead, func(s int, k float64) transportConfig {
		c := transport(o, n, alphas[s], 1)
		c.K = int(k)
		return c
	})
}

func runF8EncTime(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	fig := &stats.Figure{ID: "F8r", Title: fmt.Sprintf("relative FEC encoding time vs k (rho=1, N=%d): k time units per parity packet", n), XLabel: "k", YLabel: "relative encoding time"}
	for _, alpha := range alphaSweep(o.Quick) {
		s := fig.NewSeries(fmt.Sprintf("alpha=%g", alpha))
		for _, k := range kSweep(o.Quick) {
			c := transport(o, n, alpha, 1)
			c.K = k
			ms, err := runTransport(c)
			if err != nil {
				return nil, err
			}
			s.Add(float64(k), meanOver(ms, 0, func(m *vsim.Metrics) float64 {
				return float64(m.ParitySent * k)
			}))
		}
	}
	return []*stats.Figure{fig}, nil
}

// rhoSweepFig plots y against rho at rho fixed (Figs. 9 and 10).
func rhoSweepFig(o Options, fig *stats.Figure, y func(*vsim.Metrics) float64) ([]*stats.Figure, error) {
	alphas := alphaSweep(o.Quick)
	return sweep(fig, labels("alpha=%g", alphas), rhoSweep(o.Quick), 0, y, func(s int, rho float64) transportConfig {
		return transport(o, defaultN(o.Quick), alphas[s], rho)
	})
}

func runF9NACKs(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F9l", Title: fmt.Sprintf("average first-round NACKs vs rho (N=%d, k=10)", defaultN(o.Quick)), XLabel: "proactivity factor", YLabel: "avg # NACKs (round 1)"}
	return rhoSweepFig(o, fig, round1NACKs)
}

func runF9Rounds(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F9r", Title: fmt.Sprintf("average rounds until all users recover vs rho (N=%d, k=10)", defaultN(o.Quick)), XLabel: "proactivity factor", YLabel: "avg # server rounds"}
	return rhoSweepFig(o, fig, mcastRounds)
}

func runF10UserRounds(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	fig := &stats.Figure{ID: "F10l", Title: fmt.Sprintf("fraction of users finishing in a given round (N=%d, alpha=20%%)", n), XLabel: "round", YLabel: "fraction of users"}
	for _, rho := range []float64{1.0, 1.6, 2.0} {
		ms, err := runTransport(transport(o, n, 0.2, rho))
		if err != nil {
			return nil, err
		}
		hist := map[int]int{}
		users := 0
		for _, m := range ms {
			for r, c := range m.UserRoundHist {
				hist[r] += c
			}
			users += m.NeededUsers
		}
		s := fig.NewSeries(fmt.Sprintf("rho=%g", rho))
		for r := 1; r <= 6; r++ {
			if users > 0 {
				s.Add(float64(r), float64(hist[r])/float64(users))
			}
		}
	}
	return []*stats.Figure{fig}, nil
}

func runF10Bandwidth(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F10r", Title: fmt.Sprintf("average server bandwidth overhead vs rho (N=%d, k=10)", defaultN(o.Quick)), XLabel: "proactivity factor", YLabel: "avg server bandwidth overhead"}
	return rhoSweepFig(o, fig, overhead)
}

func runF12RhoTrace(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n, alphas := defaultN(o.Quick), alphaSweep(o.Quick)
	return rhoTraces("F12", func(initRho float64) string {
		return fmt.Sprintf("adaptive rho trajectory, initial rho=%g (N=%d, numNACK=20)", initRho, n)
	}, "proactivity factor", labels("alpha=%g", alphas), func(m *vsim.Metrics) float64 { return m.RhoUsed },
		func(initRho float64, s int) transportConfig { return adaptive(o, n, 10, alphas[s], initRho, 20) })
}

func runF13NACKTrace(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n, alphas := defaultN(o.Quick), alphaSweep(o.Quick)
	return rhoTraces("F13", func(initRho float64) string {
		return fmt.Sprintf("first-round NACKs per message, initial rho=%g (N=%d, numNACK=20)", initRho, n)
	}, "# NACKs (round 1)", labels("alpha=%g", alphas), round1NACKs,
		func(initRho float64, s int) transportConfig { return adaptive(o, n, 10, alphas[s], initRho, 20) })
}

func runF14TargetSweep(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	targets := []int{0, 5, 10, 40, 100}
	if o.Quick {
		targets = []int{0, 10, 100}
	}
	return rhoTraces("F14", func(initRho float64) string {
		return fmt.Sprintf("first-round NACKs per message for numNACK targets, initial rho=%g (N=%d, alpha=20%%)", initRho, n)
	}, "# NACKs (round 1)", labels("numNACK=%d", targets), round1NACKs,
		func(initRho float64, s int) transportConfig {
			return adaptive(o, n, 10, 0.2, initRho, targets[s])
		})
}

func runF15NACKvsK(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	ks := []int{1, 5, 10, 30, 50}
	if o.Quick {
		ks = []int{1, 10, 50}
	}
	return rhoTraces("F15", func(initRho float64) string {
		return fmt.Sprintf("first-round NACKs per message for block sizes, initial rho=%g (N=%d, alpha=20%%, numNACK=20)", initRho, n)
	}, "# NACKs (round 1)", labels("k=%d", ks), round1NACKs,
		func(initRho float64, s int) transportConfig { return adaptive(o, n, ks[s], 0.2, initRho, 20) })
}

// kSweepFig plots y against k under adaptive rho, a series per alpha
// (Figs. 16 left and 17).
func kSweepFig(o Options, fig *stats.Figure, y func(*vsim.Metrics) float64) ([]*stats.Figure, error) {
	alphas := alphaSweep(o.Quick)
	return sweep(fig, labels("alpha=%g", alphas), floats(kSweep(o.Quick)), warmup, y, func(s int, k float64) transportConfig {
		return adaptive(o, defaultN(o.Quick), int(k), alphas[s], 1.0, 20)
	})
}

func runF16Alpha(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F16l", Title: fmt.Sprintf("bandwidth overhead vs k, adaptive rho (N=%d, numNACK=20)", defaultN(o.Quick)), XLabel: "k", YLabel: "avg server bandwidth overhead"}
	return kSweepFig(o, fig, overhead)
}

func runF16N(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	ns := []int{1024, 4096, 8192, 16384}
	if o.Quick {
		ns = []int{1024, 4096}
	}
	fig := &stats.Figure{ID: "F16r", Title: "bandwidth overhead vs k, adaptive rho (alpha=20%, numNACK=20)", XLabel: "k", YLabel: "avg server bandwidth overhead"}
	return sweep(fig, labels("N=%d", ns), floats(kSweep(o.Quick)), warmup, overhead, func(s int, k float64) transportConfig {
		return adaptive(o, ns[s], int(k), 0.2, 1.0, 20)
	})
}

func runF17Server(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F17l", Title: fmt.Sprintf("average rounds for all users vs k, adaptive rho (N=%d, numNACK=20)", defaultN(o.Quick)), XLabel: "k", YLabel: "avg # server rounds"}
	return kSweepFig(o, fig, mcastRounds)
}

func runF17User(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F17r", Title: fmt.Sprintf("average rounds needed by a user vs k, adaptive rho (N=%d, numNACK=20)", defaultN(o.Quick)), XLabel: "k", YLabel: "avg # rounds per user"}
	return kSweepFig(o, fig, userRounds)
}

// numNACKFig plots y against the numNACK target, a series per alpha
// (Fig. 18).
func numNACKFig(o Options, fig *stats.Figure, y func(*vsim.Metrics) float64) ([]*stats.Figure, error) {
	alphas := alphaSweep(o.Quick)
	return sweep(fig, labels("alpha=%g", alphas), floats(numNACKSweep(o.Quick)), warmup, y, func(s int, x float64) transportConfig {
		return adaptive(o, defaultN(o.Quick), 10, alphas[s], 1, int(x))
	})
}

func runF18Latency(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F18l", Title: fmt.Sprintf("average rounds needed by a user vs numNACK (N=%d, k=10)", defaultN(o.Quick)), XLabel: "numNACK", YLabel: "avg # rounds per user"}
	return numNACKFig(o, fig, userRounds)
}

func runF18Bandwidth(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	fig := &stats.Figure{ID: "F18r", Title: fmt.Sprintf("average server bandwidth overhead vs numNACK (N=%d, k=10)", defaultN(o.Quick)), XLabel: "numNACK", YLabel: "avg server bandwidth overhead"}
	return numNACKFig(o, fig, overhead)
}

// extraFig plots the bandwidth overhead of adaptive rho and of rho=1
// against k: for each of names, a pair of series whose runs tc
// configures from the adaptive one (Figs. 19 and 20).
func extraFig(o Options, fig *stats.Figure, names []string, tc func(s, k int) transportConfig) ([]*stats.Figure, error) {
	var pairs []string
	for _, name := range names {
		pairs = append(pairs, name+", adaptive rho", name+", rho=1")
	}
	return sweep(fig, pairs, floats(kSweep(o.Quick)), warmup, overhead, func(s int, k float64) transportConfig {
		c := tc(s/2, int(k))
		if s%2 == 1 {
			c.AdaptiveRho, c.InitialRho = false, 1
		}
		return c
	})
}

func runF19(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	alphas := []float64{0, 0.2, 1.0}
	if o.Quick {
		alphas = []float64{0, 0.2}
	}
	fig := &stats.Figure{ID: "F19", Title: fmt.Sprintf("adaptive rho vs rho=1 bandwidth overhead (N=%d, numNACK=20)", n), XLabel: "k", YLabel: "avg server bandwidth overhead"}
	return extraFig(o, fig, labels("alpha=%g", alphas), func(s, k int) transportConfig {
		return adaptive(o, n, k, alphas[s], 1.0, 20)
	})
}

func runF20(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	ns := []int{1024, 8192, 16384}
	if o.Quick {
		ns = []int{1024, 4096}
	}
	fig := &stats.Figure{ID: "F20", Title: "adaptive rho vs rho=1 bandwidth overhead per group size (alpha=20%, numNACK=20)", XLabel: "k", YLabel: "avg server bandwidth overhead"}
	return extraFig(o, fig, labels("N=%d", ns), func(s, k int) transportConfig {
		return adaptive(o, ns[s], k, 0.2, 1.0, 20)
	})
}

func runF21(o Options) ([]*stats.Figure, error) {
	o = o.fill()
	n := defaultN(o.Quick)
	messages := 100
	if o.Quick {
		messages = 20
	}
	c := adaptive(o, n, 10, 0.2, 1, 200)
	c.MaxNACK, c.AdaptNumNACK, c.MaxMulticastRounds, c.Messages = 200, true, 2, messages
	ms, err := runTransport(c)
	if err != nil {
		return nil, err
	}
	misses := &stats.Figure{ID: "F21l", Title: fmt.Sprintf("users missing the 2-round deadline (N=%d, initial numNACK=200)", n), XLabel: "rekey message ID", YLabel: "# users missing deadline"}
	target := &stats.Figure{ID: "F21r", Title: "numNACK adaptation", XLabel: "rekey message ID", YLabel: "numNACK"}
	sm := misses.NewSeries("deadline=2 rounds")
	st := target.NewSeries("deadline=2 rounds")
	for i, m := range ms {
		sm.Add(float64(i), float64(m.MissedDeadline))
		st.Add(float64(i), float64(m.NumNACKTarget))
	}
	return []*stats.Figure{misses, target}, nil
}
