// Package workload generates rekey-message workloads for experiments:
// stationary (N, J, L) batches against a pristine tree (the paper's
// evaluation setup, where every message sees the same group size and
// churn).
package workload

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/assign"
	"repro/internal/keys"
	"repro/internal/keytree"
)

// Generator produces rekey transport messages for a group of fixed size
// N and tree degree d. Each Next() call clones the pristine populated
// tree and applies an independent batch, so successive messages are
// statistically identical -- the stationarity the paper's traces assume.
type Generator struct {
	d, n, k  int
	pristine *keytree.Tree
	rng      *rand.Rand
	next     keytree.Member
}

// NewGenerator builds a generator for an N-user group, degree-d tree,
// and FEC block size k.
func NewGenerator(n, d, k int, seed uint64) (*Generator, error) {
	if n <= 0 || d < 2 || k <= 0 {
		return nil, fmt.Errorf("workload: bad parameters n=%d d=%d k=%d", n, d, k)
	}
	tr := keytree.New(d, keys.NewDeterministicGenerator(seed))
	joins := make([]keytree.Member, n)
	for i := range joins {
		joins[i] = keytree.Member(i)
	}
	if _, err := tr.ProcessBatch(joins, nil); err != nil {
		return nil, err
	}
	return &Generator{
		d: d, n: n, k: k,
		pristine: tr,
		rng:      rand.New(rand.NewPCG(seed, 0x10ad)),
		next:     keytree.Member(n),
	}, nil
}

// N returns the group size.
func (g *Generator) N() int { return g.n }

// Draw returns the next batch against the pristine group: l leavers
// chosen uniformly at random and j fresh member handles. Batch applies
// it; a run that rebuilds the pristine group per message applies it too.
func (g *Generator) Draw(j, l int) (joins, leaves []keytree.Member, err error) {
	if l > g.n {
		return nil, nil, fmt.Errorf("workload: %d leaves from %d users", l, g.n)
	}
	members := g.pristine.Members()
	perm := g.rng.Perm(len(members))
	leaves = make([]keytree.Member, l)
	for i := 0; i < l; i++ {
		leaves[i] = members[perm[i]]
	}
	joins = make([]keytree.Member, j)
	for i := range joins {
		joins[i] = g.next
		g.next++
	}
	return joins, leaves, nil
}

// Batch applies the next Draw to a clone of the pristine tree and returns
// the batch result together with its UKA plan.
func (g *Generator) Batch(j, l int) (*keytree.BatchResult, *assign.Plan, error) {
	joins, leaves, err := g.Draw(j, l)
	if err != nil {
		return nil, nil, err
	}
	res, err := g.pristine.Clone().ProcessBatch(joins, leaves)
	if err != nil {
		return nil, nil, err
	}
	plan, err := assign.Build(res)
	if err != nil {
		return nil, nil, err
	}
	return res, plan, nil
}

// K returns the FEC block size the generator was configured with.
func (g *Generator) K() int { return g.k }

// Degree returns the key tree degree.
func (g *Generator) Degree() int { return g.d }

// PostBatchUsers returns the number of users a (j,l) batch leaves in the
// group: the population the transport network must carry. Transport
// experiments identify network user i with the i-th user ID of the
// post-batch tree.
func (g *Generator) PostBatchUsers(j, l int) int { return g.n + j - l }
