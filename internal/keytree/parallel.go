package keytree

import (
	"repro/internal/keys"
	"repro/internal/tuning"
)

// emitChunk is the number of encryptions the parallel emission hands
// out at a time: large enough that the shared cursor is noise against
// the AES and HMAC work, small enough that a batch of a few thousand
// edges still splits evenly over the goroutines, and a multiple of a
// WrapBatch's 16 lanes, so only a batch's last piece has a short flush.
const emitChunk = 512

// emitParallel writes the batch's encryptions: one per live child of
// each rekeyed k-node, deepest level first and IDs ascending within a
// level. rekeyed ascends, so each level's parents are a contiguous run
// and their children come out ascending. A serial pass lists the
// children (kind and label tests only, no crypto) into a pre-sized
// []Encryption, so every encryption's position is known -- and lookup's
// index built -- before any wrap runs; tuning.FanOut then hands out runs
// of emitChunk encryptions, each wrapped by fillSpan. No locks, no
// post-hoc sorting, and the result does not depend on GOMAXPROCS.
func (t *Tree) emitParallel(res *BatchResult, rekeyed []int) {
	total := 0
	for _, p := range rekeyed {
		for c := t.d*p + 1; c <= t.d*p+t.d; c++ {
			if t.emits(c) {
				total++
			}
		}
	}
	if total == 0 {
		res.indexLevels()
		return
	}
	res.Encryptions = make([]Encryption, total)
	levelStart := t.levelBounds()
	out, hi, top := 0, len(rekeyed), 0
	for l := t.height; hi > 0; l-- {
		lo := hi
		for lo > 0 && rekeyed[lo-1] >= levelStart[l] {
			lo--
		}
		start := out
		for _, p := range rekeyed[lo:hi] {
			for c := t.d*p + 1; c <= t.d*p+t.d; c++ {
				if t.emits(c) {
					res.Encryptions[out].ID = uint32(c)
					out++
					top = max(top, c)
				}
			}
		}
		if out > start {
			res.levels = append(res.levels, levelSeg{lo: levelStart[l+1], start: start})
		}
		hi = lo
	}
	res.emitted.w = make([]uint64, top/64+1)
	for i := range res.Encryptions {
		res.emitted.set(int(res.Encryptions[i].ID))
	}
	res.indexLevels()

	// No piece fails, so FanOut returns nil.
	_ = tuning.FanOut(total, emitChunk, nil, func(_ struct{}, lo, hi int) error {
		t.fillSpan(res, lo, hi)
		return nil
	})
}

// fillSpan wraps Encryptions[lo:hi], whose IDs emitParallel has set:
// each child's parent key under the child's key, through a WrapBatch on
// this goroutine's stack, 16 edges to a flush, the tail's included.
func (t *Tree) fillSpan(res *BatchResult, lo, hi int) {
	var b keys.WrapBatch
	for i := lo; i < hi; i++ {
		e := &res.Encryptions[i]
		id := int(e.ID)
		b.Add(&e.Wrapped, &t.nodes[id].key, &t.nodes[t.Parent(id)].key)
	}
	b.Flush()
}
