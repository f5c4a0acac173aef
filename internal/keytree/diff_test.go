package keytree

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/keys"
)

// diffPair drives two trees -- one through the parallel ProcessBatch,
// one through the sequential reference processBatchSeq -- with
// deterministic generators built from the same seed. The trees must be
// built independently (not Cloned): a Clone shares one generator, and
// interleaved draws from two consumers would diverge the streams.
type diffPair struct {
	par, seq *Tree
}

func newDiffPair(d int, seed uint64) *diffPair {
	return &diffPair{
		par: New(d, keys.NewDeterministicGenerator(seed)),
		seq: New(d, keys.NewDeterministicGenerator(seed)),
	}
}

// step applies the same batch to both trees and fails unless every
// observable output -- encryptions (IDs and ciphertext bytes), MaxKID,
// group key, user IDs, update counts -- is identical.
func (p *diffPair) step(t *testing.T, joins, leaves []Member) {
	t.Helper()
	rp, errP := p.par.ProcessBatch(joins, leaves)
	rs, errS := p.seq.processBatchSeq(joins, leaves)
	if (errP == nil) != (errS == nil) {
		t.Fatalf("error mismatch: parallel=%v sequential=%v", errP, errS)
	}
	if errP != nil {
		if errP.Error() != errS.Error() {
			t.Fatalf("error text mismatch: parallel=%q sequential=%q", errP, errS)
		}
		return
	}
	if err := p.par.CheckInvariant(); err != nil {
		t.Fatalf("parallel tree invariant: %v", err)
	}
	if err := p.seq.CheckInvariant(); err != nil {
		t.Fatalf("sequential tree invariant: %v", err)
	}
	if rp.MaxKID != rs.MaxKID || rp.GroupKey != rs.GroupKey {
		t.Fatalf("MaxKID/GroupKey mismatch: (%d, %x) vs (%d, %x)",
			rp.MaxKID, rp.GroupKey, rs.MaxKID, rs.GroupKey)
	}
	if rp.Joined != rs.Joined || rp.Left != rs.Left || rp.UpdatedKNodes != rs.UpdatedKNodes {
		t.Fatalf("count mismatch: J=%d/%d L=%d/%d updated=%d/%d",
			rp.Joined, rs.Joined, rp.Left, rs.Left, rp.UpdatedKNodes, rs.UpdatedKNodes)
	}
	if len(rp.UserIDs) != len(rs.UserIDs) {
		t.Fatalf("UserIDs length %d vs %d", len(rp.UserIDs), len(rs.UserIDs))
	}
	for i := range rp.UserIDs {
		if rp.UserIDs[i] != rs.UserIDs[i] {
			t.Fatalf("UserIDs[%d] = %d vs %d", i, rp.UserIDs[i], rs.UserIDs[i])
		}
	}
	if len(rp.Encryptions) != len(rs.Encryptions) {
		t.Fatalf("encryption count %d vs %d", len(rp.Encryptions), len(rs.Encryptions))
	}
	for i := range rp.Encryptions {
		ep, es := rp.Encryptions[i], rs.Encryptions[i]
		if ep.ID != es.ID {
			t.Fatalf("Encryptions[%d].ID = %d vs %d", i, ep.ID, es.ID)
		}
		if !bytes.Equal(ep.Wrapped[:], es.Wrapped[:]) {
			t.Fatalf("Encryptions[%d] (ID %d) ciphertext differs:\n  par %x\n  seq %x",
				i, ep.ID, ep.Wrapped, es.Wrapped)
		}
	}
	// The segment index must agree with a linear scan on both results.
	for _, r := range []*BatchResult{rp, rs} {
		for i, e := range r.Encryptions {
			j, ok := r.lookup(int(e.ID))
			if !ok || j != i {
				t.Fatalf("lookup(%d) = (%d, %v), want (%d, true)", e.ID, j, ok, i)
			}
		}
		if _, ok := r.lookup(-1); ok {
			t.Fatal("lookup(-1) found an encryption")
		}
	}
}

// TestProcessBatchMatchesSeqRandomSchedules runs randomized join/leave
// schedules through both pipelines and requires byte-identical results
// at every batch, across degrees and GOMAXPROCS values.
func TestProcessBatchMatchesSeqRandomSchedules(t *testing.T) {
	for _, tc := range []struct {
		d, workers int
		seed       uint64
	}{
		{2, 0, 101},
		{3, 2, 102},
		{4, 0, 103},
		{4, 3, 104},
		{5, 8, 105},
	} {
		t.Run(fmt.Sprintf("d=%d,workers=%d", tc.d, tc.workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.workers)) // 0 keeps it
			p := newDiffPair(tc.d, tc.seed)
			rng := rand.New(rand.NewPCG(tc.seed, 77))
			next := Member(0)
			var present []Member

			for batch := 0; batch < 25; batch++ {
				nJoin := rng.IntN(40)
				nLeave := 0
				if len(present) > 0 {
					nLeave = rng.IntN(len(present) + 1)
				}
				joins := make([]Member, nJoin)
				for i := range joins {
					joins[i] = next
					next++
				}
				rng.Shuffle(len(present), func(i, j int) {
					present[i], present[j] = present[j], present[i]
				})
				leaves := append([]Member(nil), present[:nLeave]...)
				p.step(t, joins, leaves)
				present = append(present[nLeave:], joins...)
			}
		})
	}

	// The shapes where the touched positions are a small part of the
	// node array: the benchmark's swing (d = 4, 4096 <-> 5120 members,
	// J or L = 1024 a batch), and J = L = 1 batches on a tree grown to
	// 4096 members and shrunk to its 16 lowest user IDs, whose array
	// keeps the grown tree's slots.
	fresh := func(next *Member, n int) []Member {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = *next
			*next++
		}
		return ms
	}
	t.Run("swing,workers=2", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		p := newDiffPair(4, 106)
		rng := rand.New(rand.NewPCG(106, 77))
		next := Member(0)
		p.step(t, fresh(&next, 4096), nil)
		for batch := 0; batch < 6; batch++ {
			if batch%2 == 0 {
				p.step(t, fresh(&next, 1024), nil)
				continue
			}
			live := p.par.Members()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			p.step(t, nil, live[:1024])
		}
	})
	t.Run("shrunk,J=L=1,workers=0", func(t *testing.T) {
		p := newDiffPair(4, 107)
		rng := rand.New(rand.NewPCG(107, 77))
		next := Member(0)
		p.step(t, fresh(&next, 4096), nil)
		p.step(t, nil, p.par.Members()[16:])
		for batch := 0; batch < 10; batch++ {
			live := p.par.Members()
			p.step(t, fresh(&next, 1), live[rng.IntN(len(live)):][:1])
		}
	})
}

// TestProcessBatchMatchesSeqEdgeCases pins the shapes the random walk
// may miss: empty batches, total departure, single-member churn, and
// the J<L prune cascade from a full tree.
func TestProcessBatchMatchesSeqEdgeCases(t *testing.T) {
	p := newDiffPair(4, 42)

	// Empty batch on an empty tree.
	p.step(t, nil, nil)

	// First population.
	joins := make([]Member, 64)
	for i := range joins {
		joins[i] = Member(i)
	}
	p.step(t, joins, nil)

	// Empty batch on a populated tree.
	p.step(t, nil, nil)

	// J == L replacement of a prefix.
	p.step(t, []Member{100, 101, 102}, []Member{0, 1, 2})

	// J < L prune cascade: remove three quarters.
	var leaves []Member
	for i := 3; i < 48; i++ {
		leaves = append(leaves, Member(i))
	}
	p.step(t, []Member{200}, leaves)

	// Total departure.
	var all []Member
	for m := range p.seq.loc {
		all = append(all, m)
	}
	// step shuffles nothing itself; order only affects error paths, and
	// both trees receive the identical slice.
	p.step(t, nil, all)

	// Regrow from empty, one member at a time.
	for i := 0; i < 5; i++ {
		p.step(t, []Member{Member(300 + i)}, nil)
	}

	// Error paths must agree too.
	p.step(t, []Member{300}, nil)      // already present
	p.step(t, nil, []Member{999})      // unknown leave
	p.step(t, []Member{400, 400}, nil) // duplicate join
	p.step(t, nil, []Member{301, 301}) // duplicate leave
}

// TestFillSpanMatchesRefWrapAndSeq rewraps spans of 17, 33 and 513
// edges of one batch -- one past a full flush, two past, and 32
// flushes and one lane -- at a lane-aligned and an unaligned start, and
// requires every edge to be the reference's wrap of its keys and the
// sequential pipeline's encryption at that position.
func TestFillSpanMatchesRefWrapAndSeq(t *testing.T) {
	p := newDiffPair(4, 31)
	joins := make([]Member, 2000)
	for i := range joins {
		joins[i] = Member(i)
	}
	p.step(t, joins, nil)
	leaves := make([]Member, 0, 400)
	for m := Member(0); m < 2000; m += 5 {
		leaves = append(leaves, m)
	}
	rs, err := p.seq.processBatchSeq([]Member{5000, 5001}, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Encryptions) < 513+7 {
		t.Fatalf("batch emitted %d encryptions, want at least %d", len(rs.Encryptions), 513+7)
	}
	refill := &BatchResult{Encryptions: make([]Encryption, len(rs.Encryptions))}
	for i, e := range rs.Encryptions {
		refill.Encryptions[i].ID = e.ID
	}
	for _, n := range []int{17, 33, 513} {
		for _, lo := range []int{0, 7} {
			for i := range refill.Encryptions {
				refill.Encryptions[i].Wrapped = [keys.WrappedSize]byte{}
			}
			p.seq.fillSpan(refill, lo, lo+n)
			for i := lo; i < lo+n; i++ {
				got, id := refill.Encryptions[i].Wrapped, int(rs.Encryptions[i].ID)
				if want := refWrap(p.seq.nodes[id].key, p.seq.nodes[p.seq.Parent(id)].key); got != want {
					t.Fatalf("span [%d,%d): edge %d (ID %d) = %x, refWrap %x", lo, lo+n, i, id, got, want)
				}
				if got != rs.Encryptions[i].Wrapped {
					t.Fatalf("span [%d,%d): edge %d (ID %d) differs from processBatchSeq's", lo, lo+n, i, id)
				}
			}
			if lo > 0 && refill.Encryptions[lo-1].Wrapped != ([keys.WrappedSize]byte{}) {
				t.Fatalf("span [%d,%d) wrote edge %d before it", lo, lo+n, lo-1)
			}
			if refill.Encryptions[lo+n].Wrapped != ([keys.WrappedSize]byte{}) {
				t.Fatalf("span [%d,%d) wrote edge %d past it", lo, lo+n, lo+n)
			}
		}
	}
}
