package protocol

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blockplan"
	"repro/internal/fec"
)

func makeReqs(rng *rand.Rand, blocks, k, plen int, rho float64) []BlockParity {
	pro := blockplan.ProactiveParity(k, rho)
	reqs := make([]BlockParity, blocks)
	for b := range reqs {
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, plen)
			for j := range data[i] {
				data[i][j] = byte(rng.Uint32())
			}
		}
		reqs[b] = BlockParity{Data: data, First: 0, N: pro}
	}
	return reqs
}

// TestEncodeBlocksDeterministic: for several (blocks, k, rho)
// combinations, every GOMAXPROCS must produce output byte-identical
// to the serial path (one P), which itself must match the plain
// per-block EncodeAll.
func TestEncodeBlocksDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		blocks, k int
		rho       float64
	}{
		{1, 10, 1.5},
		{3, 1, 2.0},
		{7, 5, 1.2},
		{16, 10, 1.5},
		{33, 20, 1.1},
	}
	for _, tc := range cases {
		c, err := fec.NewCoder(tc.k, fec.MaxShards-tc.k)
		if err != nil {
			t.Fatal(err)
		}
		reqs := makeReqs(rng, tc.blocks, tc.k, 256, tc.rho)
		runtime.GOMAXPROCS(1)
		serial, err := EncodeBlocks(context.Background(), c, reqs, 0)
		if err != nil {
			t.Fatalf("serial EncodeBlocks(%+v): %v", tc, err)
		}
		for b, req := range reqs {
			want, err := c.EncodeAll(req.Data, req.First, req.N)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(serial[b][i], want[i]) {
					t.Fatalf("serial pool output differs from per-block EncodeAll at block %d parity %d", b, i)
				}
			}
		}
		for _, workers := range []int{2, 3, 4, 8, 64} {
			runtime.GOMAXPROCS(workers)
			got, err := EncodeBlocks(context.Background(), c, reqs, 0)
			if err != nil {
				t.Fatalf("EncodeBlocks(workers=%d): %v", workers, err)
			}
			for b := range serial {
				if len(got[b]) != len(serial[b]) {
					t.Fatalf("workers=%d block %d: %d parity packets, want %d", workers, b, len(got[b]), len(serial[b]))
				}
				for i := range serial[b] {
					if !bytes.Equal(got[b][i], serial[b][i]) {
						t.Fatalf("workers=%d output differs from serial at block %d parity %d", workers, b, i)
					}
				}
			}
		}
	}
}

func TestEncodeBlocksEmptyAndErrors(t *testing.T) {
	c, _ := fec.NewCoder(4, 4)
	out, err := EncodeBlocks(context.Background(), c, nil, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty request list: out=%v err=%v", out, err)
	}
	rng := rand.New(rand.NewPCG(12, 12))
	reqs := makeReqs(rng, 4, 4, 64, 1.5)
	reqs[2].N = 99 // out of range for maxParity=4
	if _, err := EncodeBlocks(context.Background(), c, reqs, 0); err == nil {
		t.Fatal("out-of-range parity request did not error")
	}
	reqs[2].N = 2
	reqs[2].Data = reqs[2].Data[:3] // short block
	if _, err := EncodeBlocks(context.Background(), c, reqs, 0); err == nil {
		t.Fatal("short block did not error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EncodeBlocks(ctx, c, makeReqs(rng, 8, 4, 64, 1.5), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled encode: err = %v, want context.Canceled", err)
	}
}

// TestEncodeBlocksSharedCoderConcurrent runs several concurrent
// "rekey messages" through one shared Coder, each with its own
// fan-out, and checks every message's output against a lone call's.
// Run with -race this doubles as the data-race check on the shared
// read-only Coder.
func TestEncodeBlocksSharedCoderConcurrent(t *testing.T) {
	const k = 10
	coder, err := fec.NewCoder(k, fec.MaxShards-k)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 8
	type msg struct {
		reqs []BlockParity
		want [][][]byte
	}
	all := make([]msg, msgs)
	for m := range all {
		rng := rand.New(rand.NewPCG(uint64(m), 99))
		all[m].reqs = makeReqs(rng, 5+m, k, 256, 1.5)
		all[m].want, err = EncodeBlocks(context.Background(), coder, all[m].reqs, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, msgs)
	for m := range all {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			got, err := EncodeBlocks(context.Background(), coder, all[m].reqs, 0)
			if err != nil {
				errc <- err
				return
			}
			for b := range got {
				for i := range got[b] {
					if !bytes.Equal(got[b][i], all[m].want[b][i]) {
						errc <- errMismatch{m, b, i}
						return
					}
				}
			}
		}(m)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type errMismatch struct{ m, b, i int }

func (e errMismatch) Error() string {
	return "concurrent encode mismatch"
}

func BenchmarkEncodeBlocksWorkers(b *testing.B) {
	const blocks, k, plen = 32, 10, 1024
	coder, err := fec.NewCoder(k, fec.MaxShards-k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 13))
	reqs := makeReqs(rng, blocks, k, plen, 1.5)
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dw", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.SetBytes(int64(blocks * k * plen))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeBlocks(context.Background(), coder, reqs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
