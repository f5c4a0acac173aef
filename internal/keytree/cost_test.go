package keytree

import (
	"testing"
	"time"
)

// growShrink returns a d = 4 tree grown to grow members in one batch
// and shrunk, in a second, to the keep members with the lowest user IDs.
// Its node array keeps the grown tree's slots, the tail of them n-nodes.
func growShrink(tb testing.TB, seed uint64, grow, keep int) *Tree {
	tb.Helper()
	tr := newTestTree(tb, 4, seed)
	populate(tb, tr, grow)
	if _, err := tr.ProcessBatch(nil, tr.Members()[keep:]); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestBatchCostFollowsChange: a batch costs what it changes, not what
// the node array once held. A J = L = 1 batch on a tree grown to 16 384
// members and shrunk to 16, whose array keeps 21 845 slots, must stay
// within 10x of the same batch on a tree of 16 that never grew, each
// timed as the fastest of 5 runs on fresh clones. Passes over the whole
// array make the ratio tens.
func TestBatchCostFollowsChange(t *testing.T) {
	const runs, bound = 5, 10
	fastest := func(base *Tree) time.Duration {
		best := time.Duration(1<<63 - 1)
		for range runs {
			tr := base.Clone()
			leave := tr.Members()[0]
			start := time.Now()
			if _, err := tr.ProcessBatch([]Member{1 << 40}, []Member{leave}); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	shrunk := growShrink(t, 1, 16384, 16)
	small := newTestTree(t, 4, 2)
	populate(t, small, 16)
	if len(shrunk.nodes) <= 1000*len(small.nodes) {
		t.Fatalf("node arrays of %d and %d slots; the test needs the shrunk one far larger",
			len(shrunk.nodes), len(small.nodes))
	}
	ts, tg := fastest(small), fastest(shrunk)
	t.Logf("J = L = 1: %v on 16 members, %v on 16 members in a %d-slot array (%.1fx)",
		ts, tg, len(shrunk.nodes), float64(tg)/float64(ts))
	if tg > bound*ts {
		t.Errorf("batch on the shrunk tree took %v, over %dx the %v on a tree that never grew", tg, bound, ts)
	}
}
