package rekey

import (
	"context"
	"fmt"

	"repro/internal/blockplan"
)

// Round is one multicast round laid out for the wire: its datagrams
// back to back in send order, so that any run of them is one buffer a
// send can carry. BuildRound fills it; a Round reused from round to
// round keeps its arrays, and once they have grown to a round's size
// building the next allocates nothing but the parity it encodes.
type Round struct {
	// Bytes holds the datagrams; datagram i is Bytes[Offs[i]:Offs[i+1]].
	Bytes []byte
	Offs  []int
	// At[e] is where in the round ENC packet e sits, or -1 when the
	// round does not carry it.
	At []int
	// Parity counts the round's PARITY datagrams.
	Parity int
	// need[b] is the parity prefix of block b the round reaches into.
	need []int
}

// Datagram returns datagram i of the round.
func (r *Round) Datagram(i int) []byte { return r.Bytes[r.Offs[i]:r.Offs[i+1]] }

// BuildRound lays out the datagrams refs names into r, in refs order:
// ENC datagrams copied from rm.ENC, PARITY datagrams built from each
// block's parity prefix, which one encode first extends as far as the
// round reaches. What r held before is overwritten. Cancelling ctx
// abandons the encode and returns ctx.Err().
func (rm *RekeyMessage) BuildRound(ctx context.Context, r *Round, refs []blockplan.Ref) error {
	k := rm.Part.K
	if cap(r.need) < rm.Blocks() {
		r.need = make([]int, rm.Blocks())
	}
	r.need = r.need[:rm.Blocks()]
	clear(r.need)
	for _, ref := range refs {
		if ref.Block < 0 || ref.Block >= rm.Blocks() {
			return fmt.Errorf("rekey: block %d out of range", ref.Block)
		}
		if ref.IsParity(k) {
			r.need[ref.Block] = max(r.need[ref.Block], ref.Shard-k+1)
		}
	}
	if cap(r.At) < len(rm.ENC) {
		r.At = make([]int, len(rm.ENC))
	}
	r.At = r.At[:len(rm.ENC)]
	for e := range r.At {
		r.At[e] = -1
	}
	r.Bytes, r.Offs, r.Parity = r.Bytes[:0], append(r.Offs[:0], 0), 0

	rm.mu.Lock()
	defer rm.mu.Unlock()
	if err := rm.encodeLocked(ctx, r.need); err != nil {
		return err
	}
	for i, ref := range refs {
		if ref.IsParity(k) {
			b, err := rm.appendParityLocked(r.Bytes, ref.Block, ref.Shard-k)
			if err != nil {
				return err
			}
			r.Bytes = b
			r.Parity++
		} else {
			e := ref.Block*k + ref.Shard
			r.Bytes = append(r.Bytes, rm.ENC[e]...)
			r.At[e] = i
		}
		r.Offs = append(r.Offs, len(r.Bytes))
	}
	return nil
}
