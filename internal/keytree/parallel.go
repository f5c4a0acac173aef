package keytree

import (
	"repro/internal/keys"
	"repro/internal/tuning"
)

// emitChunk is the span width of the parallel emission: the fan-out
// hands out node-ID spans of this many positions one at a time.
// Large enough that the counting pass and cursor traffic are noise
// against the AES work inside a span, small enough that a
// million-entry level splits into hundreds of units and the
// goroutines stay balanced even when eligibility is clustered.
const emitChunk = 2048

// emitSpan is one unit of parallel emission work: the eligible nodes
// in [lo, hi) write their encryptions at Encryptions[out:].
type emitSpan struct {
	lo, hi int
	out    int
}

// emitParallel writes the batch's encryptions, deepest level first and
// IDs ascending within a level, pre-sized and filled in parallel. A
// serial counting pass over the rekey levels (cheap: label/kind tests
// only, no crypto) marks the emitting nodes and fixes each span's
// output offset by prefix sum, so every encryption's
// position is known -- and lookup's index built -- before any wrap
// runs; tuning.FanOut then hands the spans out one at a time, each
// goroutine filling its own with a WrapContext of its own. No locks, no
// post-hoc sorting, and the result does not depend on GOMAXPROCS.
func (t *Tree) emitParallel(res *BatchResult) {
	levelStart := t.levelBounds()
	res.emitted.w = make([]uint64, (len(t.nodes)+63)/64)
	var spans []emitSpan
	total := 0
	for level := t.height; level >= 1; level-- {
		lo, hi := levelStart[level], levelStart[level+1]
		if hi > len(t.nodes) {
			hi = len(t.nodes)
		}
		levelTotal := total
		for s := lo; s < hi; s += emitChunk {
			e := s + emitChunk
			if e > hi {
				e = hi
			}
			cnt := 0
			for id := s; id < e; id++ {
				if t.emitEligible(id) {
					res.emitted.set(id)
					cnt++
				}
			}
			if cnt > 0 {
				spans = append(spans, emitSpan{lo: s, hi: e, out: total})
				total += cnt
			}
		}
		if total > levelTotal {
			res.levels = append(res.levels, levelSeg{lo: lo, start: levelTotal})
		}
	}
	res.indexLevels()
	if total == 0 {
		return
	}
	res.Encryptions = make([]Encryption, total)

	// No span fails, so FanOut returns nil.
	_ = tuning.FanOut(len(spans), 1, func() *keys.WrapContext {
		return keys.NewWrapContext(keys.Key{})
	}, func(ctx *keys.WrapContext, i, _ int) error {
		t.fillSpan(spans[i], res, ctx)
		return nil
	})
}

// fillSpan writes one span's encryptions at their precomputed offsets.
// Every tree edge has a distinct child (outer) key, so the context is
// re-keyed per edge, which copies the key and the HMAC pads and
// allocates nothing.
func (t *Tree) fillSpan(sp emitSpan, res *BatchResult, ctx *keys.WrapContext) {
	out := sp.out
	for id := sp.lo; id < sp.hi; id++ {
		if !t.emitEligible(id) {
			continue
		}
		e := &res.Encryptions[out]
		e.ID = uint32(id)
		ctx.SetKey(t.nodes[id].key)
		ctx.WrapInto(&e.Wrapped, t.nodes[t.Parent(id)].key)
		out++
	}
}
