// Adversarial churn scenarios: deterministic interval-by-interval join
// and leave schedules that stress the rekeying pipeline in ways the
// paper's stationary workload does not -- flash crowds, diurnal cycles,
// network partitions healing, and colluding leavers picked to maximise
// key-tree damage. A Driver folds a Scenario into one evolving key tree
// so invariant oracles can watch every batch.

package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/assign"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
)

// Scenario describes a churn schedule. Implementations must be
// deterministic given the rng stream they are handed: all randomness
// goes through it, so a Driver seed fully pins the run. Scenarios may
// carry state between intervals (e.g. who is partitioned) and are
// therefore single-use values.
type Scenario interface {
	// Name identifies the scenario in tables and test names.
	Name() string
	// Bootstrap returns the initial group size before interval 0.
	Bootstrap() int
	// Intervals returns how many churn intervals the scenario runs.
	Intervals() int
	// Churn returns the members joining and leaving in interval i.
	// live is the current membership in ascending node-ID order; alloc
	// mints a fresh never-used member handle. Leavers must be distinct
	// members of live, and at least one member must survive.
	Churn(i int, live []keytree.Member, rng *rand.Rand, alloc func() keytree.Member) (joins, leaves []keytree.Member)
}

// poisson samples a Poisson variate with the given mean: Knuth's product
// method for small means, a rounded normal approximation for large ones
// (exact tails do not matter for workload shaping).
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		limit := math.Exp(-mean)
		n, prod := 0, rng.Float64()
		for prod > limit {
			n++
			prod *= rng.Float64()
		}
		return n
	}
	n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return n
}

// pickUniform returns l distinct members of live chosen uniformly.
func pickUniform(live []keytree.Member, l int, rng *rand.Rand) []keytree.Member {
	if l > len(live) {
		l = len(live)
	}
	out := make([]keytree.Member, l)
	for i, idx := range rng.Perm(len(live))[:l] {
		out[i] = live[idx]
	}
	return out
}

// FlashCrowd models a quiet group hit by a mass-join event: Base users
// with light Poisson churn (mean Background joins and leaves per
// interval), then Spike joins arriving in the single interval SpikeAt.
// This is the paper's J=10^5 column turned into a trajectory.
type FlashCrowd struct {
	Base       int     // initial group size
	Spike      int     // joins landing in interval SpikeAt
	SpikeAt    int     // which interval the crowd arrives in
	Total      int     // number of intervals
	Background float64 // mean background joins and leaves per interval
}

// Name implements Scenario.
func (s *FlashCrowd) Name() string { return "flash-crowd" }

// Bootstrap implements Scenario.
func (s *FlashCrowd) Bootstrap() int { return s.Base }

// Intervals implements Scenario.
func (s *FlashCrowd) Intervals() int { return s.Total }

// Churn implements Scenario.
func (s *FlashCrowd) Churn(i int, live []keytree.Member, rng *rand.Rand, alloc func() keytree.Member) (joins, leaves []keytree.Member) {
	nj := poisson(s.Background, rng)
	if i == s.SpikeAt {
		nj += s.Spike
	}
	for j := 0; j < nj; j++ {
		joins = append(joins, alloc())
	}
	nl := poisson(s.Background, rng)
	if nl >= len(live) {
		nl = len(live) - 1
	}
	leaves = pickUniform(live, nl, rng)
	return joins, leaves
}

// Diurnal models a daily usage cycle: Poisson joins with mean
// Mean*(1+Amplitude*sin(2*pi*i/Period)) and Poisson leaves with the
// antiphase mean, so the group swells and drains around Base.
type Diurnal struct {
	Base      int     // initial group size
	Mean      float64 // mean churn per interval at the zero crossing
	Amplitude float64 // relative swing in [0,1]
	Period    int     // intervals per cycle
	Total     int     // number of intervals
}

// Name implements Scenario.
func (s *Diurnal) Name() string { return "diurnal" }

// Bootstrap implements Scenario.
func (s *Diurnal) Bootstrap() int { return s.Base }

// Intervals implements Scenario.
func (s *Diurnal) Intervals() int { return s.Total }

// Churn implements Scenario.
func (s *Diurnal) Churn(i int, live []keytree.Member, rng *rand.Rand, alloc func() keytree.Member) (joins, leaves []keytree.Member) {
	phase := math.Sin(2 * math.Pi * float64(i) / float64(s.Period))
	nj := poisson(s.Mean*(1+s.Amplitude*phase), rng)
	nl := poisson(s.Mean*(1-s.Amplitude*phase), rng)
	for j := 0; j < nj; j++ {
		joins = append(joins, alloc())
	}
	if nl >= len(live) {
		nl = len(live) - 1
	}
	leaves = pickUniform(live, nl, rng)
	return joins, leaves
}

// PartitionRejoin models a network partition healing: at PartitionAt a
// contiguous Fraction of the membership (in node-ID order, i.e. one
// subtree-ish region) leaves in a single batch; at RejoinAt the same
// member handles rejoin. Other intervals are quiet. Exercises mass
// leave, shrunken-tree operation, and handle reuse on rejoin.
type PartitionRejoin struct {
	Base        int     // initial group size
	Fraction    float64 // fraction of members partitioned away, (0,1)
	PartitionAt int     // interval the partition cuts
	RejoinAt    int     // interval the partition heals (> PartitionAt)
	Total       int     // number of intervals

	// partitioned holds the cut members between the two events.
	partitioned []keytree.Member
}

// Name implements Scenario.
func (s *PartitionRejoin) Name() string { return "partition-rejoin" }

// Bootstrap implements Scenario.
func (s *PartitionRejoin) Bootstrap() int { return s.Base }

// Intervals implements Scenario.
func (s *PartitionRejoin) Intervals() int { return s.Total }

// Churn implements Scenario.
func (s *PartitionRejoin) Churn(i int, live []keytree.Member, rng *rand.Rand, alloc func() keytree.Member) (joins, leaves []keytree.Member) {
	switch i {
	case s.PartitionAt:
		n := int(s.Fraction * float64(len(live)))
		if n >= len(live) {
			n = len(live) - 1
		}
		if n <= 0 {
			return nil, nil
		}
		// A contiguous run of node-ID-ordered members: the partition takes
		// out a region of the tree, not a scattering.
		start := rng.IntN(len(live) - n + 1)
		s.partitioned = append([]keytree.Member(nil), live[start:start+n]...)
		return nil, s.partitioned
	case s.RejoinAt:
		joins, s.partitioned = s.partitioned, nil
		return joins, nil
	}
	return nil, nil
}

// AdversarialLeave models colluding leavers: at interval At, a fraction
// Alpha of the membership leaves in one batch, chosen by striding across
// the node-ID order so the leavers' tree paths are maximally disjoint --
// the worst case for the number of k-nodes the marking algorithm must
// replace. Other intervals are quiet.
type AdversarialLeave struct {
	Base  int     // initial group size
	Alpha float64 // fraction of members leaving, (0,1)
	At    int     // interval the coordinated leave lands in
	Total int     // number of intervals
}

// Name implements Scenario.
func (s *AdversarialLeave) Name() string { return "adversarial-leave" }

// Bootstrap implements Scenario.
func (s *AdversarialLeave) Bootstrap() int { return s.Base }

// Intervals implements Scenario.
func (s *AdversarialLeave) Intervals() int { return s.Total }

// Churn implements Scenario.
func (s *AdversarialLeave) Churn(i int, live []keytree.Member, rng *rand.Rand, alloc func() keytree.Member) (joins, leaves []keytree.Member) {
	if i != s.At {
		return nil, nil
	}
	n := int(s.Alpha * float64(len(live)))
	if n >= len(live) {
		n = len(live) - 1
	}
	if n <= 0 {
		return nil, nil
	}
	// Evenly spaced over the node-ID order: no two leavers share a low
	// ancestor, so nearly every leaver contributes a full path of
	// replaced k-nodes.
	stride := float64(len(live)) / float64(n)
	leaves = make([]keytree.Member, n)
	for j := 0; j < n; j++ {
		leaves[j] = live[int(float64(j)*stride)]
	}
	return nil, leaves
}

// Step is the outcome of one Driver interval.
type Step struct {
	Interval int
	Joins    []keytree.Member
	Leaves   []keytree.Member
	Res      *keytree.BatchResult
	Plan     *assign.Plan
}

// Driver folds a Scenario into one evolving key tree. Unlike Generator
// (which clones a pristine tree per batch), the Driver's tree carries
// state across intervals and materialises real ciphertexts, so invariant
// oracles can check what members can actually decrypt.
type Driver struct {
	scn  Scenario
	tree *keytree.Tree
	rng  *rand.Rand
	next keytree.Member
	i    int
	reg  *obs.Registry
}

// NewDriver builds a driver for the scenario over a degree-d tree and
// bootstraps the initial population in one batch. All randomness --
// key material and scenario choices -- derives from seed.
func NewDriver(scn Scenario, d int, seed uint64) (*Driver, error) {
	if d < 2 {
		return nil, fmt.Errorf("workload: degree %d", d)
	}
	n := scn.Bootstrap()
	if n <= 0 {
		return nil, fmt.Errorf("workload: scenario %q bootstraps %d users", scn.Name(), n)
	}
	dr := &Driver{
		scn:  scn,
		tree: keytree.New(d, keys.NewDeterministicGenerator(seed)),
		rng:  rand.New(rand.NewPCG(seed, 0x5ce0)),
		next: keytree.Member(n),
	}
	joins := make([]keytree.Member, n)
	for i := range joins {
		joins[i] = keytree.Member(i)
	}
	if _, err := dr.tree.ProcessBatch(joins, nil); err != nil {
		return nil, err
	}
	return dr, nil
}

// Tree exposes the evolving tree (for oracles; do not mutate).
func (dr *Driver) Tree() *keytree.Tree { return dr.tree }

// SetObs attaches an observability registry; each churn batch applied
// increments the scenario_steps counter. nil disables counting.
func (dr *Driver) SetObs(reg *obs.Registry) { dr.reg = reg }

// Step runs the next interval: asks the scenario for churn, applies it
// as one batch, and returns the result. ok is false once the scenario
// is exhausted. Intervals with no churn at all are returned with a nil
// Res and Plan (there is nothing to rekey).
func (dr *Driver) Step() (st *Step, ok bool, err error) {
	if dr.i >= dr.scn.Intervals() {
		return nil, false, nil
	}
	i := dr.i
	dr.i++
	joins, leaves := dr.scn.Churn(i, dr.tree.Members(), dr.rng, dr.alloc)
	st = &Step{Interval: i, Joins: joins, Leaves: leaves}
	if len(joins) == 0 && len(leaves) == 0 {
		return st, true, nil
	}
	res, err := dr.tree.ProcessBatch(joins, leaves)
	if err != nil {
		return nil, false, fmt.Errorf("workload: %s interval %d: %w", dr.scn.Name(), i, err)
	}
	plan, err := assign.Build(res)
	if err != nil {
		return nil, false, fmt.Errorf("workload: %s interval %d: %w", dr.scn.Name(), i, err)
	}
	st.Res, st.Plan = res, plan
	dr.reg.Inc(obs.CScenarioSteps)
	return st, true, nil
}

// alloc mints a fresh member handle.
func (dr *Driver) alloc() keytree.Member {
	m := dr.next
	dr.next++
	return m
}
