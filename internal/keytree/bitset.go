package keytree

import "math/bits"

// bitset is a growable bit vector indexed by node ID: the tree's u-node
// occupancy, checkBatch's departing positions and, ranked, a batch's
// emitting nodes. It costs one word op per mark where a map[int]bool
// costs a hashed insert, and a scan reads 64 positions a word.
type bitset struct {
	w []uint64
}

// set marks bit i, growing the backing storage as needed.
func (b *bitset) set(i int) {
	if word := i >> 6; word >= len(b.w) {
		b.w = append(b.w, make([]uint64, word+1-len(b.w))...)
	}
	b.w[i>>6] |= 1 << (uint(i) & 63)
}

// clear unmarks bit i (a no-op beyond the allocated words).
func (b *bitset) clear(i int) {
	if word := i >> 6; word < len(b.w) {
		b.w[word] &^= 1 << (uint(i) & 63)
	}
}

// get reports whether bit i is marked; bits beyond the allocated words
// are unmarked.
func (b *bitset) get(i int) bool {
	word := i >> 6
	return word < len(b.w) && b.w[word]&(1<<(uint(i)&63)) != 0
}

// next returns the lowest marked bit in [i, end), or end if there is
// none, skipping unmarked bits a word at a time.
func (b *bitset) next(i, end int) int {
	stop := min(end, len(b.w)<<6)
	if i >= stop {
		return end
	}
	w := i >> 6
	if word := b.w[w] >> (uint(i) & 63); word != 0 {
		return min(i+bits.TrailingZeros64(word), end)
	}
	for w++; w<<6 < stop; w++ {
		if b.w[w] != 0 {
			return min(w<<6+bits.TrailingZeros64(b.w[w]), end)
		}
	}
	return end
}

// rankedBitset is a bitset that also counts, in one popcount, the set
// bits below a position: below[w] is the number set in the words before
// word w. Set the bits, then call index once.
type rankedBitset struct {
	bitset
	below []int32
}

// index fills the per-word running counts; rank needs them.
func (b *rankedBitset) index() {
	b.below = make([]int32, len(b.w))
	n := 0
	for i, w := range b.w {
		b.below[i] = int32(n)
		n += bits.OnesCount64(w)
	}
}

// rank returns how many set bits lie below i and whether bit i is set;
// positions outside the allocated words report (0, false).
func (b *rankedBitset) rank(i int) (below int, set bool) {
	word := i >> 6
	if i < 0 || word >= len(b.w) {
		return 0, false
	}
	w, bit := b.w[word], uint64(1)<<(uint(i)&63)
	return int(b.below[word]) + bits.OnesCount64(w&(bit-1)), w&bit != 0
}
