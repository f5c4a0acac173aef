package keytree

import (
	"math/rand/v2"
	"testing"
)

// TestJoinUnchangedShare measures, on the build_swing workload's shape
// (d = 4, 4096 users, batches of 1024 joins alternating with 1024
// random leaves), the encryptions a one-way advance of Join-labelled
// k-node keys (k' = F(k)) would save: those whose parent is labelled
// Join and whose own label is Unchanged, for their holders already hold
// the parent's old key. The labels are read after ProcessBatch, which
// leaves them as its marking set them until the next batch.
//
// The first join batch lands on a full tree and splits nodes, so few
// parents are Join; every later one fills the holes the leaves made,
// beside Unchanged siblings, and the share passes a half.
func TestJoinUnchangedShare(t *testing.T) {
	tr := newTestTree(t, 4, 1)
	populate(t, tr, 4096)
	rng := rand.New(rand.NewPCG(1, 2))
	next := Member(4096)
	for cycle := 0; cycle < 4; cycle++ {
		joins := make([]Member, 1024)
		for i := range joins {
			joins[i] = next
			next++
		}
		res, err := tr.ProcessBatch(joins, nil)
		if err != nil {
			t.Fatal(err)
		}
		saved := 0
		for _, e := range res.Encryptions {
			id := int(e.ID)
			if tr.nodes[tr.Parent(id)].label == Join && tr.nodes[id].label == Unchanged {
				saved++
			}
		}
		share := float64(saved) / float64(len(res.Encryptions))
		t.Logf("join batch %d: %d of %d encryptions (%.1f%%) have a Join parent and an Unchanged child",
			cycle, saved, len(res.Encryptions), 100*share)
		want, off := "over a half", share <= 0.5
		if cycle == 0 {
			want, off = "under a third", share >= 1.0/3
		}
		if off {
			t.Errorf("join batch %d: share %.3f, want %s", cycle, share, want)
		}

		members := tr.Members()
		leaves := make([]Member, 1024)
		for i, p := range rng.Perm(len(members))[:len(leaves)] {
			leaves[i] = members[p]
		}
		if _, err := tr.ProcessBatch(nil, leaves); err != nil {
			t.Fatal(err)
		}
	}
}
