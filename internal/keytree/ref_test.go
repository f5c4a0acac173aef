package keytree

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/keys"
)

// refWrap is the wrap format written out with crypto/aes and
// crypto/hmac: an oracle for the emission that shares no code with
// package keys' kernels.
func refWrap(outer, inner keys.Key) [keys.WrappedSize]byte {
	var out [keys.WrappedSize]byte
	block, err := aes.NewCipher(outer[:])
	if err != nil {
		panic(err)
	}
	block.Encrypt(out[:keys.KeySize], inner[:])
	mac := hmac.New(sha256.New, outer[:])
	mac.Write(out[:keys.KeySize])
	copy(out[keys.KeySize:], mac.Sum(nil)[:keys.TagSize])
	return out
}

// processBatchSeq is ProcessBatch's sequential, whole-array reference:
// map-based validation, the marking as it ran before it followed the
// touched positions (seqBatch: bitset marks, then prune, promote and
// relabel passes over every node), one MustNewKey draw per updated
// k-node found by a scan in ascending ID order, a user-ID scan of the
// whole array, and a single-threaded, append-based wrap emission that
// tests every node, levels deepest first, and wraps each edge in a
// one-lane batch of its own. The differential and golden
// tests require ProcessBatch to match it byte for byte at every worker
// count. A tree is driven by one of the two, never both.
func (t *Tree) processBatchSeq(joins, leaves []Member) (*BatchResult, error) {
	if err := t.checkBatchSeq(joins, leaves); err != nil {
		return nil, err
	}
	if len(joins) == 0 && len(leaves) == 0 {
		return t.resultSeq(), nil
	}
	t.markSeq(joins, leaves)
	updated := 0
	for id := range t.nodes {
		n := &t.nodes[id]
		if n.kind == KNode && (n.label == Join || n.label == Replace) {
			n.key = t.gen.MustNewKey()
			updated++
		}
	}
	// Keep the tree's own bookkeeping true for its accessors and
	// CheckInvariant: every labelled node counts as touched.
	t.maxK = t.maxKIDSeq()
	t.touched = t.touched[:0]
	for id := range t.nodes {
		if t.nodes[id].label != Unchanged {
			t.touched = append(t.touched, id)
		}
	}
	res := t.resultSeq()
	res.Joined, res.Left, res.UpdatedKNodes = len(joins), len(leaves), updated

	levelStart := t.levelBounds()
	res.emitted.w = make([]uint64, (len(t.nodes)+63)/64)
	var b keys.WrapBatch // flushed after every edge
	for level := t.height; level >= 1; level-- {
		lo, hi := levelStart[level], min(levelStart[level+1], len(t.nodes))
		start := len(res.Encryptions)
		for id := lo; id < hi; id++ {
			if !t.emitEligible(id) {
				continue
			}
			res.Encryptions = append(res.Encryptions, Encryption{ID: uint32(id)})
			e := &res.Encryptions[len(res.Encryptions)-1]
			b.Add(&e.Wrapped, &t.nodes[id].key, &t.nodes[t.Parent(id)].key)
			b.Flush()
			res.emitted.set(id)
		}
		if len(res.Encryptions) > start {
			res.levels = append(res.levels, levelSeg{lo: lo, start: start})
		}
	}
	res.indexLevels()
	return res, nil
}

// checkBatchSeq is checkBatch with a map per request list; its errors,
// texts and order are the ones checkBatch must give.
func (t *Tree) checkBatchSeq(joins, leaves []Member) error {
	for _, m := range leaves {
		if _, ok := t.loc[m]; !ok {
			return fmt.Errorf("keytree: leave request for unknown member %d", m)
		}
	}
	seen := make(map[Member]bool, len(joins))
	for _, m := range joins {
		if _, ok := t.loc[m]; ok {
			return fmt.Errorf("keytree: join request for already-present member %d", m)
		}
		if seen[m] {
			return fmt.Errorf("keytree: duplicate join request for member %d", m)
		}
		seen[m] = true
	}
	leaveSet := make(map[Member]bool, len(leaves))
	for _, m := range leaves {
		if leaveSet[m] {
			return fmt.Errorf("keytree: duplicate leave request for member %d", m)
		}
		leaveSet[m] = true
	}
	return nil
}

// maxKIDSeq scans the whole array for the maximum k-node ID.
func (t *Tree) maxKIDSeq() int {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i].kind == KNode {
			return i
		}
	}
	return -1
}

// resultSeq reads the user IDs off the whole node array.
func (t *Tree) resultSeq() *BatchResult {
	ids := make([]int, 0, len(t.loc))
	for id := range t.nodes {
		if t.nodes[id].kind == UNode {
			ids = append(ids, id)
		}
	}
	return &BatchResult{MaxKID: t.maxKIDSeq(), GroupKey: t.GroupKey(), UserIDs: ids, d: t.d}
}

// emitEligible reports whether node id (at a level below the root)
// contributes an encryption: it is a live node whose parent k-node got
// a new key, and it did not itself leave.
func (t *Tree) emitEligible(id int) bool {
	n := &t.nodes[id]
	if n.kind != UNode && n.kind != KNode {
		return false
	}
	p := &t.nodes[t.Parent(id)]
	if p.kind != KNode || (p.label != Join && p.label != Replace) {
		return false
	}
	return n.label != Leave
}

// kindOf is a bounds-tolerant accessor: IDs beyond the allocated slice
// are n-nodes of the conceptual infinite expansion.
func (t *Tree) kindOf(id int) NodeKind {
	if id >= len(t.nodes) {
		return NNode
	}
	return t.nodes[id].kind
}

// seqBatch is one batch's placement marks in the whole-array marking,
// from which relabel derives the rekey subtree: positions filled by a
// pure join, positions refilled after a same-interval departure, and
// positions vacated this interval (u-nodes removed and not refilled,
// plus pruned k-nodes).
type seqBatch struct {
	t                               *Tree
	joinPos, replacePos, vacatedPos bitset
}

// markSeq is the whole-array form of mark: the same placement, then
// prune (on net shrink), promote and relabel each sweep every node.
func (t *Tree) markSeq(joins, leaves []Member) {
	b := &seqBatch{t: t}
	departed := make([]int, 0, len(leaves))
	for _, m := range leaves {
		departed = append(departed, b.remove(m))
	}
	sort.Ints(departed)

	n := min(len(joins), len(leaves))
	for i, m := range joins[:n] {
		b.place(departed[i], m, true)
	}
	switch {
	case len(joins) < len(leaves):
		b.pruneEmptyKNodes()
	case len(joins) > len(leaves):
		b.placeExtra(joins[n:])
	}
	t.promoteNNodesSeq()
	b.relabel()
}

func (b *seqBatch) placeExtra(extra []Member) {
	t := b.t
	if t.N() == 0 && t.maxKIDSeq() < 0 {
		t.growTo(t.d)
		b.place(1, extra[0], false)
		t.nodes[0].kind = KNode
		extra = extra[1:]
	}
	if len(extra) == 0 {
		return
	}
	nk := t.maxKIDSeq()
	hi := t.d*nk + t.d
	t.growTo(hi)
	i := 0
	for id := nk + 1; id <= hi && i < len(extra); id++ {
		if t.kindOf(id) == NNode {
			b.place(id, extra[i], b.vacatedPos.get(id))
			i++
		}
	}
	for i < len(extra) {
		nk++
		child := t.d*nk + 1
		t.growTo(child + t.d - 1)
		m := t.nodes[nk]
		t.setNode(child, m)
		t.loc[m.member] = child
		t.setNode(nk, node{kind: KNode})
		for id := child + 1; id <= child+t.d-1 && i < len(extra); id++ {
			b.place(id, extra[i], false)
			i++
		}
	}
}

func (b *seqBatch) remove(m Member) int {
	id := b.t.loc[m]
	delete(b.t.loc, m)
	b.t.setNode(id, node{kind: NNode})
	b.vacatedPos.set(id)
	return id
}

func (b *seqBatch) place(id int, m Member, replaced bool) {
	t := b.t
	t.growTo(id)
	t.setNode(id, node{kind: UNode, member: m, key: t.gen.MustNewKey()})
	t.loc[m] = id
	b.vacatedPos.clear(id)
	if replaced {
		b.replacePos.set(id)
	} else {
		b.joinPos.set(id)
	}
}

// pruneEmptyKNodes converts k-nodes whose children are all n-nodes into
// n-nodes, bottom-up over the whole array.
func (b *seqBatch) pruneEmptyKNodes() {
	t := b.t
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if t.nodes[id].kind != KNode {
			continue
		}
		allN := true
		first := t.d*id + 1
		for c := first; c < first+t.d; c++ {
			if t.kindOf(c) != NNode {
				allN = false
				break
			}
		}
		if allN {
			t.nodes[id] = node{kind: NNode}
			b.vacatedPos.set(id)
		}
	}
}

// promoteNNodesSeq converts n-nodes that acquired a u-node or k-node
// descendant into k-nodes, bottom-up over the whole array.
func (t *Tree) promoteNNodesSeq() {
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if t.nodes[id].kind != NNode {
			continue
		}
		first := t.d*id + 1
		for c := first; c < first+t.d; c++ {
			k := t.kindOf(c)
			if k == UNode || k == KNode {
				t.nodes[id].kind = KNode
				break
			}
		}
	}
}

// relabel labels every node bottom-up from the batch's marks.
func (b *seqBatch) relabel() {
	t := b.t
	for id := len(t.nodes) - 1; id >= 0; id-- {
		n := &t.nodes[id]
		switch n.kind {
		case NNode:
			if b.vacatedPos.get(id) {
				n.label = Leave
			} else {
				n.label = Unchanged
			}
		case UNode:
			switch {
			case b.joinPos.get(id):
				n.label = Join
			case b.replacePos.get(id):
				n.label = Replace
			default:
				n.label = Unchanged
			}
		case KNode:
			allLeave, allUnchanged, allUnchangedOrJoin := true, true, true
			first := t.d*id + 1
			for c := first; c < first+t.d; c++ {
				var l Label = Leave
				if c < len(t.nodes) {
					l = t.nodes[c].label
				}
				if l != Leave {
					allLeave = false
				}
				if l != Unchanged {
					allUnchanged = false
				}
				if l != Unchanged && l != Join {
					allUnchangedOrJoin = false
				}
			}
			switch {
			case allLeave:
				n.label = Leave
			case allUnchanged:
				n.label = Unchanged
			case allUnchangedOrJoin:
				n.label = Join
			default:
				n.label = Replace
			}
		}
	}
}

// benchTrees caches populated key trees per size so the parallel and
// sequential sub-benchmarks share one build instead of paying the
// million-member population twice.
var benchTrees = map[int]*Tree{}

// BenchmarkProcessBatch measures, for ProcessBatch and, under /seq, the
// sequential whole-array reference:
//   - one leave-heavy batch (J=0, L=N/4) on clones of trees of 4096 and
//     2^20 members, the server-capacity unit of DESIGN.md's Section 8
//     analysis at the paper's largest N;
//   - the swing of the build_swing workload, d = 4, alternately 1024
//     joins onto 4096 members and 1024 leaves back;
//   - J = L = 1 batches on a tree grown to 16 384 members and shrunk to
//     16, whose node array keeps 21 845 slots.
//
// The last two run batch after batch on one tree.
func BenchmarkProcessBatch(b *testing.B) {
	variants := func(name string, fn func(b *testing.B, batch func(*Tree, []Member, []Member) error)) {
		for _, seq := range []bool{false, true} {
			batch, sub := (*Tree).ProcessBatch, name
			if seq {
				batch, sub = (*Tree).processBatchSeq, name+"/seq"
			}
			b.Run(sub, func(b *testing.B) {
				fn(b, func(tr *Tree, joins, leaves []Member) error {
					_, err := batch(tr, joins, leaves)
					return err
				})
			})
		}
	}
	for _, n := range []int{4096, 1 << 20} {
		variants(fmt.Sprintf("N=%d,J=0,L=N÷4", n), func(b *testing.B, batch func(*Tree, []Member, []Member) error) {
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
				if err := batch(tr, nil, leaves); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	variants("swing,N=4096↔5120,J|L=1024", func(b *testing.B, batch func(*Tree, []Member, []Member) error) {
		tr := newTestTree(b, 4, 5)
		live := populate(b, tr, 4096).UserIDs // only its length matters
		present := make([]Member, len(live))
		for i := range present {
			present[i] = Member(i)
		}
		next := Member(len(present))
		rng := rand.New(rand.NewPCG(5, 9))
		joins := make([]Member, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				for j := range joins {
					joins[j] = next
					next++
				}
				present = append(present, joins...)
				if err := batch(tr, joins, nil); err != nil {
					b.Fatal(err)
				}
				continue
			}
			rng.Shuffle(len(present), func(x, y int) { present[x], present[y] = present[y], present[x] })
			cut := len(present) - 1024
			if err := batch(tr, nil, present[cut:]); err != nil {
				b.Fatal(err)
			}
			present = present[:cut]
		}
	})
	variants("shrunk,N=16384→16,J=L=1", func(b *testing.B, batch func(*Tree, []Member, []Member) error) {
		tr := growShrink(b, 6, 16384, 16)
		live := tr.Members()
		next := Member(1 << 40)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(live)
			if err := batch(tr, []Member{next}, live[k:k+1]); err != nil {
				b.Fatal(err)
			}
			live[k] = next
			next++
		}
	})
}
