package fec

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzFECDecode drives the MDS property from fuzzer-chosen parameters:
// derive (k, m, packet length, shard subset) from the input, encode a
// block, hand DecodeInto an arbitrary k-sized mixture of data and parity
// shards, and require exact reconstruction. It then corrupts shard
// indices and requires DecodeInto to fail loudly (error), never to return
// success with wrong data.
func FuzzFECDecode(f *testing.F) {
	f.Add(uint8(10), uint8(5), uint16(64), uint64(1))
	f.Add(uint8(1), uint8(1), uint16(1), uint64(2))
	f.Add(uint8(50), uint8(25), uint16(128), uint64(3))
	f.Add(uint8(20), uint8(20), uint16(1024), uint64(4))
	f.Fuzz(func(t *testing.T, kRaw, mRaw uint8, plenRaw uint16, seed uint64) {
		k := int(kRaw)%100 + 1
		m := int(mRaw)%(MaxShards-k) + 1
		plen := int(plenRaw)%2048 + 1
		rng := rand.New(rand.NewPCG(seed, 0xfec))

		c, err := NewCoder(k, m)
		if err != nil {
			t.Fatalf("NewCoder(%d,%d): %v", k, m, err)
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, plen)
			for j := range data[i] {
				data[i][j] = byte(rng.Uint32())
			}
		}
		parity, err := c.EncodeAll(data, 0, m)
		if err != nil {
			t.Fatalf("EncodeAll: %v", err)
		}

		// Pick a random k-subset of the k+m shards.
		perm := rng.Perm(k + m)
		shards := make([]Shard, 0, k)
		for _, idx := range perm[:k] {
			if idx < k {
				shards = append(shards, Shard{Index: idx, Data: data[idx]})
			} else {
				shards = append(shards, Shard{Index: idx, Data: parity[idx-k]})
			}
		}
		got, err := decode(c, shards)
		if err != nil {
			t.Fatalf("DecodeInto of %d valid shards (k=%d, m=%d): %v", len(shards), k, m, err)
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				t.Fatalf("reconstructed packet %d differs (k=%d, m=%d, plen=%d)", i, k, m, plen)
			}
		}

		// Corrupt one shard's index so the set no longer holds k distinct
		// valid indices: duplicate another shard's index, or push it out
		// of range. DecodeInto must return an error, not wrong data.
		bad := make([]Shard, len(shards))
		copy(bad, shards)
		victim := rng.IntN(len(bad))
		if len(bad) > 1 && rng.IntN(2) == 0 {
			bad[victim].Index = bad[(victim+1)%len(bad)].Index
		} else {
			bad[victim].Index = k + m + rng.IntN(8)
		}
		if _, err := decode(c, bad); err == nil {
			t.Fatalf("DecodeInto accepted a corrupted shard index set (k=%d, m=%d)", k, m)
		}
	})
}

// FuzzDecodeShardSoup feeds DecodeInto arbitrary shard index/length
// combinations: it must never panic, and any successful decode under a
// consistent shard set must round-trip through re-encoding.
func FuzzDecodeShardSoup(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(5), []byte{250, 251, 0, 0, 9})
	f.Fuzz(func(t *testing.T, kRaw uint8, soup []byte) {
		k := int(kRaw)%20 + 1
		c, err := NewCoder(k, k)
		if err != nil {
			t.Fatal(err)
		}
		const plen = 8
		// Each soup byte becomes one shard: index from the byte (possibly
		// invalid, duplicated, or out of range), payload derived from it.
		shards := make([]Shard, 0, len(soup))
		for i, b := range soup {
			n := plen
			if b%7 == 0 {
				n = int(b%13) + 1 // mismatched lengths must be rejected
			}
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = b ^ byte(i) ^ byte(j)
			}
			shards = append(shards, Shard{Index: int(b) - 3, Data: payload})
		}
		// Must not panic; errors are fine.
		decode(c, shards)
	})
}
