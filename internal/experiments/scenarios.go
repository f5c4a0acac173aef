// Scenario suite: churn trajectories beyond the paper's stationary
// workload, each run under a matrix of network impairments with the
// invariant oracles of package oracle watching every batch and every
// transport run. cmd/rekeybench renders the result as the comparison
// table in EXPERIMENTS.md ("Scenarios beyond the paper").

package experiments

import (
	"fmt"
	"strings"

	rekey "repro"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/vsim"
	"repro/internal/workload"
)

// ScenarioSpec names one churn scenario at full and quick scale.
type ScenarioSpec struct {
	ID    string
	Build func(quick bool) workload.Scenario
}

// ImpairmentSpec names one network condition of the matrix.
type ImpairmentSpec struct {
	ID   string
	Star func(n int, seed uint64) netsim.StarConfig
}

// ScenarioSpecs returns the four churn scenarios of the suite.
func ScenarioSpecs() []ScenarioSpec {
	return []ScenarioSpec{
		{"flash-crowd", func(quick bool) workload.Scenario {
			if quick {
				return &workload.FlashCrowd{Base: 256, Spike: 2048, SpikeAt: 1, Total: 4, Background: 4}
			}
			// The spike keeps the peak under rekey.MaxMembers(4), the v1
			// wire's ceiling; the paper's J=10^5 waits for wider IDs.
			return &workload.FlashCrowd{Base: 4096, Spike: 12000, SpikeAt: 2, Total: 6, Background: 8}
		}},
		{"diurnal", func(quick bool) workload.Scenario {
			if quick {
				return &workload.Diurnal{Base: 256, Mean: 24, Amplitude: 0.8, Period: 4, Total: 8}
			}
			return &workload.Diurnal{Base: 4096, Mean: 128, Amplitude: 0.8, Period: 12, Total: 24}
		}},
		{"partition-rejoin", func(quick bool) workload.Scenario {
			if quick {
				return &workload.PartitionRejoin{Base: 256, Fraction: 0.25, PartitionAt: 1, RejoinAt: 2, Total: 4}
			}
			return &workload.PartitionRejoin{Base: 4096, Fraction: 0.25, PartitionAt: 2, RejoinAt: 4, Total: 6}
		}},
		{"adversarial-leave", func(quick bool) workload.Scenario {
			if quick {
				return &workload.AdversarialLeave{Base: 256, Alpha: 0.25, At: 1, Total: 3}
			}
			return &workload.AdversarialLeave{Base: 4096, Alpha: 0.25, At: 2, Total: 4}
		}},
	}
}

// ImpairmentSpecs returns the network-condition axis of the matrix.
func ImpairmentSpecs() []ImpairmentSpec {
	return []ImpairmentSpec{
		{"paper", func(n int, seed uint64) netsim.StarConfig {
			return netsim.DefaultStar(n, seed)
		}},
		{"correlated", func(n int, seed uint64) netsim.StarConfig {
			cfg := netsim.DefaultStar(n, seed)
			cfg.Clusters, cfg.PCluster = 16, 0.15
			return cfg
		}},
		{"burst", func(n int, seed uint64) netsim.StarConfig {
			return netsim.StarConfig{
				N: n, Alpha: 0.5, PHigh: 0.35, PLow: 0.05, PSource: 0.05, Seed: seed,
			}
		}},
	}
}

// ScenarioCell is one (scenario, impairment) run of the matrix.
type ScenarioCell struct {
	Scenario   string
	Impairment string
	Rekeys     int // intervals that actually rekeyed
	PeakN      int
	FinalN     int
	Encs       int     // total encryptions across the run
	Overhead   float64 // mean server bandwidth overhead h'/h
	Rounds     float64 // mean multicast rounds per message
	MaxWaves   int     // worst unicast waves of any message
	R1NACKs    float64 // mean round-1 NACKs per message
	Unreached  int     // members that heard nothing of a message, summed over the run
	Checks     int64   // oracle checks run
	Violations int64   // oracle violations found
	OK         bool
	Err        string // first infrastructure or oracle error, if any
}

// runScenarioCell drives one scenario under one impairment with the
// three invariant oracles active: every interval's real message goes to
// a real Member for each member of the group.
func runScenarioCell(ss ScenarioSpec, is ImpairmentSpec, opts Options) ScenarioCell {
	cell := ScenarioCell{Scenario: ss.ID, Impairment: is.ID}
	fail := func(err error) ScenarioCell {
		cell.Err = err.Error()
		return cell
	}

	dr, err := workload.NewDriver(ss.Build(opts.Quick), 4, opts.Seed)
	if err != nil {
		return fail(err)
	}
	reg := obs.New()
	dr.SetObs(reg)
	cfg := vsim.Config{Tuning: rekey.DefaultTuning(), Obs: reg}
	cfg.AdaptiveRho = true
	orc := oracle.New(oracle.Config{
		MaxMulticastRounds: cfg.MaxMulticastRounds,
		MaxUnicastWaves:    vsim.WaveBudget,
	})
	orc.SetObs(reg)
	if err := orc.Bootstrap(dr.Tree(), dr.Members()); err != nil {
		return fail(err)
	}
	// One network for the whole run, with a link for every member the
	// group can hold; member i of an interval listens behind link i. The
	// session (and its adaptive rho state) carries across intervals.
	star, err := netsim.NewStar(is.Star(rekey.MaxMembers(4), opts.Seed^uint64(0xce11)))
	if err != nil {
		return fail(err)
	}
	sess, err := vsim.NewSession(cfg, star, opts.Seed^0xbeef)
	if err != nil {
		return fail(err)
	}

	var roundAcc, overheadAcc, nackAcc stats.Accumulator
	cell.PeakN = len(dr.Tree().Members())
	for {
		st, ok, err := dr.Step()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if st.Msg == nil {
			continue
		}
		if err := orc.ObserveBatch(dr.Tree(), st.Msg.Result, st.Leaves); err != nil {
			return fail(err)
		}
		n := len(dr.Tree().Members())
		if n > cell.PeakN {
			cell.PeakN = n
		}
		cell.Encs += len(st.Msg.Result.Encryptions)

		met, err := sess.Run(st.Msg, st.Members)
		if err != nil {
			return fail(err)
		}
		if err := orc.CheckRun(met, st.Members); err != nil {
			return fail(err)
		}
		cell.Rekeys++
		roundAcc.Add(mcastRounds(met))
		overheadAcc.Add(met.BandwidthOverhead())
		nackAcc.Add(round1NACKs(met))
		cell.Unreached += met.Unreached
		if met.UnicastWaves > cell.MaxWaves {
			cell.MaxWaves = met.UnicastWaves
		}
	}
	cell.FinalN = len(dr.Tree().Members())
	cell.Rounds = roundAcc.Mean()
	cell.Overhead = overheadAcc.Mean()
	cell.R1NACKs = nackAcc.Mean()
	cell.Checks = reg.CounterValue(obs.COracleChecks)
	cell.Violations = reg.CounterValue(obs.COracleViolations)
	cell.OK = cell.Violations == 0 && cell.Err == "" && cell.Rekeys > 0
	return cell
}

// RunScenarioSuite runs the full scenario x impairment matrix.
func RunScenarioSuite(opts Options) []ScenarioCell {
	opts = opts.fill()
	var cells []ScenarioCell
	for _, ss := range ScenarioSpecs() {
		for _, is := range ImpairmentSpecs() {
			cells = append(cells, runScenarioCell(ss, is, opts))
		}
	}
	return cells
}

// ScenarioMarkdown renders the matrix as the markdown comparison table
// embedded in EXPERIMENTS.md.
func ScenarioMarkdown(cells []ScenarioCell) string {
	var b strings.Builder
	b.WriteString("| scenario | network | rekeys | peak N | final N | encryptions | overhead h'/h | mcast rounds | max uni waves | round-1 NACKs | unreached | oracle checks | verdict |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, c := range cells {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
			if c.Err != "" {
				verdict = "FAIL: " + c.Err
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %.3f | %.2f | %d | %.1f | %d | %d | %s |\n",
			c.Scenario, c.Impairment, c.Rekeys, c.PeakN, c.FinalN, c.Encs,
			c.Overhead, c.Rounds, c.MaxWaves, c.R1NACKs, c.Unreached, c.Checks, verdict)
	}
	return b.String()
}

// ScenarioCheck runs the quick-scale matrix and returns an error if any
// cell fails -- the CI regression guard behind rekeybench
// -scenario.check.
func ScenarioCheck(opts Options) error {
	opts.Quick = true
	cells := RunScenarioSuite(opts)
	var bad []string
	for _, c := range cells {
		if !c.OK {
			bad = append(bad, fmt.Sprintf("%s/%s: %s", c.Scenario, c.Impairment, c.Err))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("scenario check: %d of %d cells failed:\n  %s",
			len(bad), len(cells), strings.Join(bad, "\n  "))
	}
	return nil
}
