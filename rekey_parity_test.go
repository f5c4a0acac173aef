package rekey_test

// Tests for the rekey message's parity: whatever mixture of BuildRound,
// PrecomputeParity, AppendWireParity and concurrency produces a PARITY
// packet, the bytes must equal the ones a fresh message generates
// serially.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	rekey "repro"
	"repro/internal/blockplan"
)

// twoMessages builds two identical rekey messages from two servers fed
// the same deterministic workload.
func twoMessages(t *testing.T, n int) (*rekey.RekeyMessage, *rekey.RekeyMessage) {
	t.Helper()
	var rms [2]*rekey.RekeyMessage
	for i := range rms {
		srv, err := rekey.NewServer(rekey.WithKeySeed(42))
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < n; m++ {
			if err := srv.QueueJoin(rekey.MemberID(m)); err != nil {
				t.Fatal(err)
			}
		}
		rm, err := srv.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		rms[i] = rm
	}
	return rms[0], rms[1]
}

func TestPrecomputeParityMatchesSerial(t *testing.T) {
	pre, serial := twoMessages(t, 700) // several FEC blocks at k=10
	blocks := pre.Blocks()
	if blocks < 2 {
		t.Fatalf("want a multi-block message, got %d block(s)", blocks)
	}
	counts := make([]int, blocks)
	for b := range counts {
		counts[b] = 3 + b%5
	}
	if err := pre.PrecomputeParity(context.Background(), counts, 4); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		for i := 0; i < counts[b]; i++ {
			got, err := pre.AppendWireParity(nil, b, i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := serial.AppendWireParity(nil, b, i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("precomputed parity (%d,%d) differs from serial", b, i)
			}
		}
	}
	// Extending past the precomputed prefix must still match.
	for b := 0; b < blocks; b++ {
		got, err := pre.AppendWireParity(nil, b, counts[b]+2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.AppendWireParity(nil, b, counts[b]+2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post-prefix parity (%d,%d) differs from serial", b, counts[b]+2)
		}
	}
}

// TestParityConcurrentCallers hammers one message's parity from many
// goroutines mixing BuildRound, PrecomputeParity and AppendWireParity;
// run under -race this checks the locking, and every result is checked
// against a serially generated twin.
func TestParityConcurrentCallers(t *testing.T) {
	rm, serial := twoMessages(t, 500)
	blocks := rm.Blocks()
	const perBlock = 6
	want := make([][][]byte, blocks)
	for b := 0; b < blocks; b++ {
		want[b] = make([][]byte, perBlock)
		for i := 0; i < perBlock; i++ {
			p, err := serial.AppendWireParity(nil, b, i)
			if err != nil {
				t.Fatal(err)
			}
			want[b][i] = p
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 1:
				// Every block's first perBlock parity shards, in one round.
				var refs []blockplan.Ref
				for i := perBlock - 1; i >= 0; i-- {
					for b := 0; b < blocks; b++ {
						refs = append(refs, blockplan.Ref{Block: b, Shard: rm.Part.K + i})
					}
				}
				var r rekey.Round
				if err := rm.BuildRound(context.Background(), &r, refs); err != nil {
					errc <- err
					return
				}
				for j, ref := range refs {
					if !bytes.Equal(r.Datagram(j), want[ref.Block][ref.Shard-rm.Part.K]) {
						t.Errorf("goroutine %d: round parity %+v differs from serial", g, ref)
						return
					}
				}
			case 0, 2:
				counts := make([]int, blocks)
				for b := range counts {
					counts[b] = 1 + (b+g)%perBlock
				}
				if err := rm.PrecomputeParity(context.Background(), counts, 2); err != nil {
					errc <- err
					return
				}
			}
			for b := 0; b < blocks; b++ {
				for i := 0; i < perBlock; i++ {
					p, err := rm.AppendWireParity(nil, b, i)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(p, want[b][i]) {
						t.Errorf("goroutine %d: parity (%d,%d) differs from serial", g, b, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestPrecomputeParityErrors(t *testing.T) {
	rm, _ := twoMessages(t, 64)
	tooMany := make([]int, rm.Blocks()+1)
	if err := rm.PrecomputeParity(context.Background(), tooMany, 2); err == nil {
		t.Error("counts longer than block count accepted")
	}
	huge := make([]int, rm.Blocks())
	huge[0] = 1 << 10
	if err := rm.PrecomputeParity(context.Background(), huge, 2); err == nil {
		t.Error("count beyond MaxParity accepted")
	}
	// nil / short counts are fine and do nothing.
	if err := rm.PrecomputeParity(context.Background(), nil, 2); err != nil {
		t.Errorf("nil counts: %v", err)
	}
}
