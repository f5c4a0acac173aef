// Package blockplan implements the block-partitioning side of the rekey
// transport protocol: splitting a rekey message's ENC packets into FEC
// blocks of size k (padding the last block with duplicates), the
// interleaved send order that separates same-block packets in time, and
// the user-side block-ID estimation algorithm of Appendix D by which a
// user that lost its specific ENC packet determines -- exactly, with
// high probability, or as a narrow range otherwise -- which block to
// request parity for.
package blockplan

import (
	"fmt"
	"math"

	"repro/internal/packet"
)

// Partition maps a rekey message's real ENC packets onto blocks of size
// K. The last block is padded by duplicating its packets round-robin, so
// every block exposes exactly K data shards.
type Partition struct {
	NumReal int // number of real (distinct) ENC packets
	K       int // block size
}

// NewPartition returns the partition of numReal packets into blocks of
// size k.
func NewPartition(numReal, k int) (Partition, error) {
	if k <= 0 {
		return Partition{}, fmt.Errorf("blockplan: block size %d, must be positive", k)
	}
	if numReal < 0 {
		return Partition{}, fmt.Errorf("blockplan: %d packets", numReal)
	}
	return Partition{NumReal: numReal, K: k}, nil
}

// NumBlocks returns the number of FEC blocks.
func (p Partition) NumBlocks() int {
	return (p.NumReal + p.K - 1) / p.K
}

// TotalSlots returns the number of data slots across all blocks,
// including last-block duplicates: NumBlocks()*K.
func (p Partition) TotalSlots() int { return p.NumBlocks() * p.K }

// RealIndex resolves a (block, seq) data slot to the real packet it
// carries; duplicates resolve to the packet they copy. It panics on an
// out-of-range slot.
func (p Partition) RealIndex(blk, seq int) int {
	if blk < 0 || blk >= p.NumBlocks() || seq < 0 || seq >= p.K {
		panic(fmt.Sprintf("blockplan: slot (%d,%d) out of range", blk, seq))
	}
	i := blk*p.K + seq
	if i < p.NumReal {
		return i
	}
	lastStart := (p.NumReal / p.K) * p.K
	span := p.NumReal - lastStart
	return lastStart + (i-lastStart)%span
}

// IsDuplicate reports whether the (block, seq) slot carries a last-block
// padding duplicate rather than a packet's primary slot.
func (p Partition) IsDuplicate(blk, seq int) bool {
	return blk*p.K+seq >= p.NumReal
}

// Slot returns the primary (block, seq) slot of real packet i.
func (p Partition) Slot(i int) (blk, seq int) {
	if i < 0 || i >= p.NumReal {
		panic(fmt.Sprintf("blockplan: packet %d out of range", i))
	}
	return i / p.K, i % p.K
}

// Duplicates returns the number of padding duplicates in the last block.
func (p Partition) Duplicates() int { return p.TotalSlots() - p.NumReal }

// Ref identifies one multicast packet of a rekey message: a shard of a
// block. Shard < K is the data slot Shard; Shard >= K is parity packet
// Shard-K.
type Ref struct {
	Block int
	Shard int
}

// IsParity reports whether the referenced shard is a parity packet.
func (r Ref) IsParity(k int) bool { return r.Shard >= k }

// Interleave produces the send order for per-block shard lists: the
// first pending shard of every block, then the second of every block,
// and so on. Interleaving maximises the time separation of same-block
// packets so a single burst-loss period is unlikely to claim two shards
// of one block.
func Interleave(perBlock [][]int) []Ref {
	var out []Ref
	for pos := 0; ; pos++ {
		emitted := false
		for b, shards := range perBlock {
			if pos < len(shards) {
				out = append(out, Ref{Block: b, Shard: shards[pos]})
				emitted = true
			}
		}
		if !emitted {
			return out
		}
	}
}

// RoundOne returns the interleaved send order of the first multicast
// round: k data shards plus ceil((rho-1)*k) proactive parity shards per
// block.
func RoundOne(p Partition, rho float64) []Ref {
	k := p.K
	pro := ProactiveParity(k, rho)
	perBlock := make([][]int, p.NumBlocks())
	for b := range perBlock {
		shards := make([]int, 0, k+pro)
		for s := 0; s < k+pro; s++ {
			shards = append(shards, s)
		}
		perBlock[b] = shards
	}
	return Interleave(perBlock)
}

// ProactiveParity returns ceil((rho-1)*k), the number of proactive
// PARITY packets per block for proactivity factor rho.
func ProactiveParity(k int, rho float64) int {
	if rho <= 1 {
		return 0
	}
	// The epsilon absorbs float artifacts: (1.6-1)*10 must be 6, not
	// ceil(6.000000000000001) = 7.
	return int(math.Ceil((rho-1)*float64(k) - 1e-9))
}

// Estimator incrementally bounds the block ID of a user's specific ENC
// packet from the headers of whatever ENC packets the user did receive
// (Appendix D). The zero value is not ready; use NewEstimator.
type Estimator struct {
	// Low and High bound the block ID inclusively.
	Low, High int
}

// NewEstimator returns an estimator with the vacuous bounds [0, MaxInt].
func NewEstimator() Estimator {
	return Estimator{Low: 0, High: math.MaxInt}
}

// Exact reports whether the bounds have collapsed to a single block.
func (e Estimator) Exact() bool { return e.Low == e.High }

// Observe refines the bounds given one received ENC packet's header.
// m is the observing user's (current) node ID, k the block size, and d
// the key tree degree. Last-block padding duplicates (h.Dup) tell
// nothing: their FrmID/ToID repeat out of order.
func (e *Estimator) Observe(m int, h packet.ENCHeader, k, d int) {
	if h.Dup {
		return
	}
	blk, seq, frm, to := int(h.BlockID), int(h.Seq), int(h.FrmID), int(h.ToID)
	switch {
	case frm <= m && m <= to:
		e.Low, e.High = blk, blk
		return
	case m > to:
		// The user's packet was generated after this one.
		if seq == k-1 {
			e.Low = max(e.Low, blk+1)
		} else {
			e.Low = max(e.Low, blk)
		}
		// Bound from above: at most d*(maxKID+1) - toID users remain
		// after this packet, and a packet serves at least one user.
		remaining := d*(int(h.MaxKID)+1) - to - (k - 1 - seq)
		e.High = min(e.High, blk+ceilDiv(remaining, k))
	case m < frm:
		// The user's packet was generated before this one.
		if seq == 0 {
			e.High = min(e.High, blk-1)
		} else {
			e.High = min(e.High, blk)
		}
	}
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
