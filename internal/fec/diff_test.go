package fec

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gf256"
	"repro/internal/obs"
)

// TestDecodeIntoMatchesRefDecode drives the missing-shard-only decoder
// and the full-inverse refDecode over randomized loss
// patterns, shard orders and duplicate deliveries; the reconstructed
// data must be identical bytes.
func TestDecodeIntoMatchesRefDecode(t *testing.T) {
	for _, tc := range []struct{ k, maxParity int }{
		{1, 4}, {2, 6}, {10, 20}, {32, 32}, {128, 128},
	} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			c, err := NewCoder(tc.k, tc.maxParity)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(tc.k), 9))
			for trial := 0; trial < 60; trial++ {
				plen := 1 + rng.IntN(200)
				data := randBlock(rng, tc.k, plen)
				parity, err := c.EncodeAll(data, 0, tc.maxParity)
				if err != nil {
					t.Fatal(err)
				}

				// Drop up to maxParity data shards, supply enough parity,
				// sprinkle duplicates, then shuffle delivery order.
				nLoss := rng.IntN(min(tc.k, tc.maxParity) + 1)
				lost := rng.Perm(tc.k)[:nLoss]
				isLost := make(map[int]bool, nLoss)
				for _, j := range lost {
					isLost[j] = true
				}
				var shards []Shard
				for j, d := range data {
					if !isLost[j] {
						shards = append(shards, Shard{Index: j, Data: d})
					}
				}
				for _, i := range rng.Perm(tc.maxParity)[:nLoss+rng.IntN(tc.maxParity-nLoss+1)] {
					shards = append(shards, Shard{Index: tc.k + i, Data: parity[i]})
				}
				if len(shards) > 0 {
					for n := rng.IntN(3); n > 0; n-- {
						shards = append(shards, shards[rng.IntN(len(shards))])
					}
				}
				rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

				got, errNew := decode(c, shards)
				ref, errRef := refDecode(c, shards)
				if errNew != nil || errRef != nil {
					t.Fatalf("trial %d: decode errors: new=%v ref=%v", trial, errNew, errRef)
				}
				for j := range got {
					if !bytes.Equal(got[j], ref[j]) {
						t.Fatalf("trial %d: packet %d differs from reference", trial, j)
					}
					if !bytes.Equal(got[j], data[j]) {
						t.Fatalf("trial %d: packet %d differs from original", trial, j)
					}
				}
			}
		})
	}
}

// TestSolveCoefMatchesRefInvert holds the closed-form Cauchy inverse
// to Gauss-Jordan elimination: for every loss count m the code admits
// at each k, sampled parity and missing sets (shard 255, the last
// parity index, among them) must give coefficient rows equal to
// refInvert's inverse of the m x m Cauchy submatrix, followed by that
// inverse times the received data columns.
func TestSolveCoefMatchesRefInvert(t *testing.T) {
	for _, k := range []int{1, 2, 10, 128, 200} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c, err := NewCoder(k, MaxShards-k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(k), 47))
			for m := 1; m <= min(k, MaxShards-k); m++ {
				// Three samples per small m; one per large m keeps the
				// k=128 sweep, O(m^2*k) per sample, short under -race.
				trials := 3
				if m > 16 {
					trials = 1
				}
				for trial := 0; trial < trials; trial++ {
					missing := rng.Perm(k)[:m]
					slices.Sort(missing)
					par := rng.Perm(MaxShards - k)[:m]
					if trial == 0 && !slices.Contains(par, MaxShards-k-1) {
						par[rng.IntN(m)] = MaxShards - k - 1
					}
					shards := make([]Shard, m)
					parityPos := make([]int, m)
					for r, i := range par {
						shards[r] = Shard{Index: k + i}
						parityPos[r] = r
					}
					dataPos := make([]int, k)
					for _, j := range missing {
						dataPos[j] = -1
					}

					// a is the Cauchy submatrix over the missing columns,
					// recv the same parity rows over the received ones.
					a, recv := make([][]byte, m), make([][]byte, m)
					for r, i := range par {
						for j, p := range dataPos {
							if p < 0 {
								a[r] = append(a[r], c.rows[i][j])
							} else {
								recv[r] = append(recv[r], c.rows[i][j])
							}
						}
					}
					inv, ok := refInvert(a)
					if !ok {
						t.Fatalf("m=%d: refInvert reports the Cauchy submatrix singular", m)
					}
					want := make([]byte, 0, m*k)
					for ci := range missing {
						w := make([]byte, k-m)
						for r := range par {
							gf256.MulAddSlice(w, recv[r], inv[ci][r])
						}
						want = append(append(want, inv[ci]...), w...)
					}
					if got := c.solveCoef(missing, parityPos, shards, dataPos); !bytes.Equal(got, want) {
						t.Fatalf("m=%d trial %d (parity %v, missing %v): closed form differs from refInvert", m, trial, par, missing)
					}
				}
			}
		})
	}
}

// TestDecodeIntoReusesBuffers checks the documented buffer contract:
// entries with sufficient capacity are filled in place, short or nil
// entries are replaced.
func TestDecodeIntoReusesBuffers(t *testing.T) {
	const k, plen = 8, 64
	c, err := NewCoder(k, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	data := randBlock(rng, k, plen)
	parity, err := c.EncodeAll(data, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	shards := []Shard{{Index: k, Data: parity[0]}, {Index: k + 2, Data: parity[2]}}
	for j := 2; j < k; j++ {
		shards = append(shards, Shard{Index: j, Data: data[j]})
	}

	out := make([][]byte, k)
	big := make([]byte, 2*plen) // ample capacity: must be reused
	out[0] = big
	out[3] = make([]byte, 1) // too short: must be replaced
	if err := c.DecodeInto(out, shards); err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if !bytes.Equal(out[j], data[j]) {
			t.Fatalf("packet %d wrong after DecodeInto", j)
		}
		if len(out[j]) != plen {
			t.Fatalf("packet %d has length %d, want %d", j, len(out[j]), plen)
		}
	}
	if &out[0][0] != &big[0] {
		t.Error("capacious buffer was not reused")
	}

	// Second decode with the same buffers must still be correct
	// (stale contents must not leak through).
	if err := c.DecodeInto(out, shards); err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if !bytes.Equal(out[j], data[j]) {
			t.Fatalf("packet %d wrong on buffer-reuse decode", j)
		}
	}

	if err := c.DecodeInto(make([][]byte, k-1), shards); err == nil {
		t.Error("short out slice accepted")
	}
}

// TestDecodeSolveCount checks that every lossy decode solves its own
// loss pattern, an exact repeat included: each adds one to
// decode_cache_miss, a no-loss decode adds nothing, and nothing counts
// decode_cache_hit.
func TestDecodeSolveCount(t *testing.T) {
	const k, plen = 10, 32
	reg := obs.New()
	c, err := NewCoder(k, 10)
	if err != nil {
		t.Fatal(err)
	}
	c.SetObs(reg)
	rng := rand.New(rand.NewPCG(7, 8))

	decodeWithLoss := func(lost ...int) {
		t.Helper()
		data := randBlock(rng, k, plen)
		parity, err := c.EncodeAll(data, 0, len(lost))
		if err != nil {
			t.Fatal(err)
		}
		isLost := make(map[int]bool)
		for _, j := range lost {
			isLost[j] = true
		}
		var shards []Shard
		for j, d := range data {
			if !isLost[j] {
				shards = append(shards, Shard{Index: j, Data: d})
			}
		}
		for i := range lost {
			shards = append(shards, Shard{Index: k + i, Data: parity[i]})
		}
		got, err := decode(c, shards)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if !bytes.Equal(got[j], data[j]) {
				t.Fatalf("packet %d wrong", j)
			}
		}
	}

	for i := 0; i < 5; i++ {
		decodeWithLoss(3) // same pattern: one solve each time
	}
	decodeWithLoss(4)    // new pattern: one more solve
	decodeWithLoss(3, 4) // two losses: still one solve
	decodeWithLoss()     // all-data: nothing to solve

	hit := reg.CounterValue(obs.CDecodeCacheHit)
	miss := reg.CounterValue(obs.CDecodeCacheMiss)
	if miss != 7 {
		t.Errorf("decode_cache_miss = %d, want 7", miss)
	}
	if hit != 0 {
		t.Errorf("decode_cache_hit = %d, want 0", hit)
	}
}

// BenchmarkFECDecode measures block reconstruction at the paper's
// packet size for the best case (1 lost data packet) and the heavy
// case (k/2 lost), for DecodeInto and, under /ref, the full-inverse
// reference. The interval-level counterpart is fec.decode_us_per_block
// in bench/ (bench/README.md).
func BenchmarkFECDecode(b *testing.B) {
	const k, plen = 10, 1027
	c, err := NewCoder(k, k)
	if err != nil {
		b.Fatal(err)
	}
	data := randBlock(rand.New(rand.NewPCG(3, 3)), k, plen)
	parity, err := c.EncodeAll(data, 0, k)
	if err != nil {
		b.Fatal(err)
	}
	for _, nLoss := range []int{1, k / 2} {
		var shards []Shard
		for j := nLoss; j < k; j++ {
			shards = append(shards, Shard{Index: j, Data: data[j]})
		}
		for i := 0; i < nLoss; i++ {
			shards = append(shards, Shard{Index: k + i, Data: parity[i]})
		}
		out := make([][]byte, k)
		b.Run(fmt.Sprintf("loss=%d", nLoss), func(b *testing.B) {
			b.SetBytes(int64(k * plen))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(out, shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("loss=%d/ref", nLoss), func(b *testing.B) {
			b.SetBytes(int64(k * plen))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := refDecode(c, shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
