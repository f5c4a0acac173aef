package protocol

import (
	"context"
	"fmt"

	"repro/internal/fec"
	"repro/internal/tuning"
)

// BlockParity is one block's encode request: generate parity shards
// [First, First+N) for the block whose data packets are Data.
type BlockParity struct {
	Data  [][]byte
	First int
	N     int
}

// EncodeBlocks generates parity for many blocks of one rekey message,
// handing the per-block Coder.EncodeAll calls out one block at a time
// to up to GOMAXPROCS goroutines (tuning.FanOut). Result [b][i] is
// parity packet First+i of reqs[b], byte-identical to what a serial
// EncodeAll per block returns. The first per-block error aborts
// the whole call. Cancelling ctx stops the encode between blocks and
// returns ctx.Err(); a million-member parity precompute is long enough
// that shutdown must be able to interrupt it. workers is unused: it
// stays for the benchmark module, which passes 0 and 1.
//
// The Coder is shared, not copied: it is safe for concurrent use, so
// several rekey messages may encode through one Coder from concurrent
// EncodeBlocks calls.
func EncodeBlocks(ctx context.Context, c *fec.Coder, reqs []BlockParity, workers int) ([][][]byte, error) {
	out := make([][][]byte, len(reqs))
	err := tuning.FanOut(len(reqs), 1, nil, func(_ struct{}, b, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := c.EncodeAll(reqs[b].Data, reqs[b].First, reqs[b].N)
		if err != nil {
			return fmt.Errorf("protocol: encode block %d: %w", b, err)
		}
		out[b] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
