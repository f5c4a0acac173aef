package keytree

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/keys"
)

// processBatchSeq is ProcessBatch's sequential reference: the same
// validation and marking, then one MustNewKey draw per updated k-node
// in ascending ID order and a single-threaded, append-based wrap
// emission, levels deepest first. The differential and golden tests
// require ProcessBatch to match it byte for byte at every worker count.
func (t *Tree) processBatchSeq(joins, leaves []Member) (*BatchResult, error) {
	if err := t.checkBatch(joins, leaves); err != nil {
		return nil, err
	}
	if len(joins) == 0 && len(leaves) == 0 {
		return t.result(), nil
	}
	t.mark(joins, leaves)
	updated := 0
	for id := range t.nodes {
		n := &t.nodes[id]
		if n.kind == KNode && (n.label == Join || n.label == Replace) {
			n.key = t.gen.MustNewKey()
			updated++
		}
	}
	res := t.result()
	res.Joined, res.Left, res.UpdatedKNodes = len(joins), len(leaves), updated

	levelStart := t.levelBounds()
	ctx := keys.NewWrapContext(keys.Key{})
	res.emitted.w = make([]uint64, (len(t.nodes)+63)/64)
	for level := t.height; level >= 1; level-- {
		lo, hi := levelStart[level], min(levelStart[level+1], len(t.nodes))
		start := len(res.Encryptions)
		for id := lo; id < hi; id++ {
			if !t.emitEligible(id) {
				continue
			}
			e := Encryption{ID: uint32(id)}
			ctx.SetKey(t.nodes[id].key)
			ctx.WrapInto(&e.Wrapped, t.nodes[t.Parent(id)].key)
			res.Encryptions = append(res.Encryptions, e)
			res.emitted.set(id)
		}
		if len(res.Encryptions) > start {
			res.levels = append(res.levels, levelSeg{lo: lo, start: start})
		}
	}
	res.indexLevels()
	return res, nil
}

// benchTrees caches populated key trees per size so the parallel and
// sequential sub-benchmarks share one build instead of paying the
// million-member population twice.
var benchTrees = map[int]*Tree{}

// BenchmarkProcessBatch measures one leave-heavy batch (J=0, L=N/4) on
// trees of 4096 and 2^20 members, for ProcessBatch and, under /seq, the
// sequential reference. This is the server-capacity unit of DESIGN.md's
// Section 8 analysis at the paper's largest N.
func BenchmarkProcessBatch(b *testing.B) {
	for _, n := range []int{4096, 1 << 20} {
		for _, seq := range []bool{false, true} {
			name := fmt.Sprintf("N=%d,J=0,L=N÷4", n)
			if seq {
				name += "/seq"
			}
			b.Run(name, func(b *testing.B) {
				base, ok := benchTrees[n]
				if !ok {
					base = newTestTree(b, 4, uint64(n))
					populate(b, base, n)
					benchTrees[n] = base
				}
				rng := rand.New(rand.NewPCG(uint64(n), 9))
				leaves := make([]Member, n/4)
				for i, p := range rng.Perm(n)[:n/4] {
					leaves[i] = Member(p)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tr := base.Clone()
					b.StartTimer()
					var err error
					if seq {
						_, err = tr.processBatchSeq(nil, leaves)
					} else {
						_, err = tr.ProcessBatch(nil, leaves)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
