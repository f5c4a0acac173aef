package protocol

// This file implements the parallel FEC encode pool. A rekey message's
// parity generation is embarrassingly parallel across its blocks (the
// Coder is read-only after construction), so the per-message
// multi-block encode fans out across a bounded set of workers. The
// output is byte-for-byte identical to the serial per-block encode
// regardless of worker count.

import (
	"context"
	"fmt"
	"sync"

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
// fanning the per-block Coder.EncodeAll calls across min(workers,
// blocks) goroutines; workers <= 0 means GOMAXPROCS. Result [b][i] is
// parity packet First+i of reqs[b]. The first per-block error aborts
// the whole call. Cancelling ctx stops workers between blocks and
// returns ctx.Err(); a million-member parity precompute is long enough
// that shutdown must be able to interrupt it.
//
// The Coder is shared, not copied: it is safe for concurrent use, so
// several rekey messages may encode through one Coder from concurrent
// EncodeBlocks calls.
func EncodeBlocks(ctx context.Context, c *fec.Coder, reqs []BlockParity, workers int) ([][][]byte, error) {
	workers = tuning.ResolveWorkers(workers)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	out := make([][][]byte, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(reqs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(reqs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for b := lo; b < hi; b++ {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				p, err := c.EncodeAll(reqs[b].Data, reqs[b].First, reqs[b].N)
				if err != nil {
					errs[w] = fmt.Errorf("protocol: encode block %d: %w", b, err)
					return
				}
				out[b] = p
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
