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

// Generator produces rekey workloads for a group of fixed size N and
// tree degree d. Each Batch call clones the pristine populated tree and
// applies an independent batch, so successive batches are statistically
// identical -- the stationarity the paper's traces assume.
type Generator struct {
	n        int
	pristine *keytree.Tree
	rng      *rand.Rand
	next     keytree.Member
}

// NewGenerator builds a generator for an N-user group and a degree-d
// tree.
func NewGenerator(n, d int, seed uint64) (*Generator, error) {
	if n <= 0 || d < 2 {
		return nil, fmt.Errorf("workload: bad parameters n=%d d=%d", n, d)
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
		n:        n,
		pristine: tr,
		rng:      rand.New(rand.NewPCG(seed, 0x10ad)),
		next:     keytree.Member(n),
	}, nil
}

// Batch applies the next batch against the pristine group -- l leavers
// chosen uniformly at random and j fresh member handles -- to a clone of
// the pristine tree and returns the batch result together with its UKA
// plan.
func (g *Generator) Batch(j, l int) (*keytree.BatchResult, *assign.Plan, error) {
	if l > g.n {
		return nil, nil, fmt.Errorf("workload: %d leaves from %d users", l, g.n)
	}
	members := g.pristine.Members()
	perm := g.rng.Perm(len(members))
	leaves := make([]keytree.Member, l)
	for i := range leaves {
		leaves[i] = members[perm[i]]
	}
	joins := make([]keytree.Member, j)
	for i := range joins {
		joins[i] = g.next
		g.next++
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
