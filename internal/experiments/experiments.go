// Package experiments regenerates every figure of the paper's
// evaluation: each registered experiment runs the workload the paper
// describes and emits the same series the paper plots, as stats.Figure
// values that cmd/rekeybench renders as text tables.
//
// See DESIGN.md for the experiment index (figure -> modules -> runner).
package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"

	rekey "repro"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/vsim"
)

// Options control experiment scale. Zero fields take the paper-scale
// values (25 messages, seed 1); Quick shrinks sweeps so the full suite
// runs in CI time.
type Options struct {
	// Messages is the number of rekey messages (or trials) per
	// configuration point.
	Messages int
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks group sizes and sweep ranges for fast runs.
	Quick bool
}

func (o Options) fill() Options {
	if o.Messages <= 0 {
		if o.Quick {
			o.Messages = 6
		} else {
			o.Messages = 25
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Runner executes one experiment.
type Runner func(Options) ([]*stats.Figure, error)

// Experiment is a registered, runnable reproduction of one paper figure
// (or analysis table).
type Experiment struct {
	ID    string // e.g. "f9-nacks-vs-rho"
	Paper string // the figure/table it regenerates, e.g. "Fig. 9 (left)"
	Desc  string
	Run   Runner
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fprint renders a figure as an aligned text table: one block per
// series, rows of "x<TAB>y".
func Fprint(w io.Writer, f *stats.Figure) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	if f.XLabel != "" || f.YLabel != "" {
		if _, err := fmt.Fprintf(w, "# x: %s, y: %s\n", f.XLabel, f.YLabel); err != nil {
			return err
		}
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, "\n[%s]\n", s.Label); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, p.Y); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// transportConfig is one transport run: the group, its links and the
// message count around the session's own configuration.
type transportConfig struct {
	N        int // pre-batch group size; N/4 leave per message
	Alpha    float64
	Messages int
	Seed     uint64
	vsim.Config
}

// transport configures a run of o.Messages messages to an n-member
// group, a share alpha of whose links are lossy: the paper's defaults
// at rho fixed, multicasting until a round draws no NACK. Each figure
// sets the knobs it varies on the result.
func transport(o Options, n int, alpha, rho float64) transportConfig {
	cfg := vsim.Config{Tuning: rekey.DefaultTuning()}
	cfg.InitialRho = rho
	cfg.MaxMulticastRounds = 0
	return transportConfig{N: n, Alpha: alpha, Messages: o.Messages, Seed: o.Seed, Config: cfg}
}

// runTransport executes Messages rekey messages and returns their
// metrics. Each message applies an independent batch of N/4 leaves to
// the same pristine N-member group, the paper's stationary workload: a
// deterministic, unsigned key server of the session's tuning whose
// members were admitted by its first message, rebuilt from the seed for
// every message, with the leavers drawn uniformly from one rng stream
// across messages.
func runTransport(tc transportConfig) ([]*vsim.Metrics, error) {
	star := netsim.StarConfig{
		N:     tc.N - tc.N/4,
		Alpha: tc.Alpha, PHigh: 0.20, PLow: 0.02, PSource: 0.01,
		Seed: tc.Seed ^ 0xfeed,
	}
	net, err := netsim.NewStar(star)
	if err != nil {
		return nil, err
	}
	sess, err := vsim.NewSession(tc.Config, net, tc.Seed^0xbeef)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(tc.Seed, 0x10ad))
	out := make([]*vsim.Metrics, 0, tc.Messages)
	for i := 0; i < tc.Messages; i++ {
		grp, err := vsim.NewGroup(tc.N, rekey.WithTuning(tc.Tuning), rekey.WithKeySeed(tc.Seed))
		if err != nil {
			return nil, err
		}
		ids := grp.Tree().Members()
		leaves := make([]rekey.MemberID, tc.N/4)
		for j, p := range rng.Perm(len(ids))[:len(leaves)] {
			leaves[j] = ids[p]
		}
		rm, members, err := grp.Rekey(nil, leaves)
		if err != nil {
			return nil, err
		}
		met, err := sess.Run(rm, members)
		if err != nil {
			return nil, err
		}
		out = append(out, met)
	}
	return out, nil
}

// meanOver computes the mean of a metric over messages, optionally
// skipping a warmup prefix.
func meanOver(ms []*vsim.Metrics, warmup int, f func(*vsim.Metrics) float64) float64 {
	var acc stats.Accumulator
	for i, m := range ms {
		if i < warmup {
			continue
		}
		acc.Add(f(m))
	}
	return acc.Mean()
}
