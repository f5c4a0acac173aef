package fec

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand, k, plen int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, plen)
		for j := range data[i] {
			data[i][j] = byte(rng.Uint32())
		}
	}
	return data
}

func TestNewCoderBounds(t *testing.T) {
	if _, err := NewCoder(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCoder(-1, 1); err == nil {
		t.Error("k=-1 accepted")
	}
	if _, err := NewCoder(10, -1); err == nil {
		t.Error("maxParity=-1 accepted")
	}
	if _, err := NewCoder(200, 57); err == nil {
		t.Error("k+maxParity>256 accepted")
	}
	if _, err := NewCoder(200, 56); err != nil {
		t.Error("k+maxParity=256 rejected")
	}
}

func TestParityStableAcrossRounds(t *testing.T) {
	// Parity packet i must be identical whether generated in the first
	// round or as an extra packet in a later round; the protocol relies
	// on this to send fresh parity without invalidating earlier packets.
	rng := rand.New(rand.NewPCG(1, 2))
	data := randBlock(rng, 10, 64)
	c, err := NewCoder(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.EncodeAll(data, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.EncodeAll(data, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !bytes.Equal(first[i], again[i]) {
			t.Fatalf("parity %d changed between encode calls", i)
		}
	}
}

func TestDecodeAllData(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	data := randBlock(rng, 8, 100)
	c, _ := NewCoder(8, 8)
	shards := make([]Shard, 8)
	for i := range shards {
		shards[i] = Shard{Index: i, Data: data[i]}
	}
	got, err := decode(c, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("data shard %d mismatch", i)
		}
	}
}

func TestDecodeWithErasures(t *testing.T) {
	// Every combination of losses up to k parity substitutions must
	// reconstruct exactly, for several k.
	for _, k := range []int{1, 2, 5, 10} {
		rng := rand.New(rand.NewPCG(uint64(k), 99))
		data := randBlock(rng, k, 128)
		c, err := NewCoder(k, k)
		if err != nil {
			t.Fatal(err)
		}
		parity, err := c.EncodeAll(data, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		// Lose the first e data packets, replace with first e parity.
		for e := 0; e <= k; e++ {
			var shards []Shard
			for i := e; i < k; i++ {
				shards = append(shards, Shard{Index: i, Data: data[i]})
			}
			for i := 0; i < e; i++ {
				shards = append(shards, Shard{Index: k + i, Data: parity[i]})
			}
			got, err := decode(c, shards)
			if err != nil {
				t.Fatalf("k=%d e=%d: %v", k, e, err)
			}
			for i := range data {
				if !bytes.Equal(got[i], data[i]) {
					t.Fatalf("k=%d e=%d: shard %d mismatch", k, e, i)
				}
			}
		}
	}
}

func TestDecodeRandomErasurePatterns(t *testing.T) {
	const k, m, plen = 10, 20, 50
	rng := rand.New(rand.NewPCG(7, 8))
	data := randBlock(rng, k, plen)
	c, _ := NewCoder(k, m)
	parity, _ := c.EncodeAll(data, 0, m)
	all := make([]Shard, 0, k+m)
	for i := range data {
		all = append(all, Shard{Index: i, Data: data[i]})
	}
	for i := range parity {
		all = append(all, Shard{Index: k + i, Data: parity[i]})
	}
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(len(all))
		keep := k + rng.IntN(m)
		shards := make([]Shard, 0, keep)
		for _, idx := range perm[:keep] {
			shards = append(shards, all[idx])
		}
		got, err := decode(c, shards)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				t.Fatalf("trial %d: shard %d mismatch", trial, i)
			}
		}
	}
}

func TestDecodeShortBlock(t *testing.T) {
	c, _ := NewCoder(5, 5)
	data := randBlock(rand.New(rand.NewPCG(1, 1)), 5, 10)
	shards := []Shard{
		{Index: 0, Data: data[0]},
		{Index: 1, Data: data[1]},
		{Index: 0, Data: data[0]}, // duplicate must not count twice
	}
	if _, err := decode(c, shards); !errors.Is(err, ErrShortBlock) {
		t.Fatalf("got %v, want ErrShortBlock", err)
	}
}

func TestDecodeIgnoresDuplicatesAndExtra(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewPCG(5, 6))
	data := randBlock(rng, k, 32)
	c, _ := NewCoder(k, 4)
	parity, _ := c.EncodeAll(data, 0, 4)
	shards := []Shard{
		{Index: k, Data: parity[0]},
		{Index: k, Data: parity[0]},
		{Index: 0, Data: data[0]},
		{Index: 0, Data: data[0]},
		{Index: k + 1, Data: parity[1]},
		{Index: k + 2, Data: parity[2]},
		{Index: k + 3, Data: parity[3]},
	}
	got, err := decode(c, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("shard %d mismatch", i)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	c, _ := NewCoder(3, 3)
	short := [][]byte{{1}, {2}}
	if _, err := c.EncodeAll(short, 0, 1); err == nil {
		t.Error("wrong shard count accepted")
	}
	uneven := [][]byte{{1, 2}, {3}, {4, 5}}
	if _, err := c.EncodeAll(uneven, 0, 1); err == nil {
		t.Error("uneven lengths accepted")
	}
	ok := [][]byte{{1}, {2}, {3}}
	if _, err := c.EncodeAll(ok, 3, 1); err == nil {
		t.Error("parity index out of range accepted")
	}
	if _, err := c.EncodeAll(ok, -1, 1); err == nil {
		t.Error("negative parity index accepted")
	}
}

func TestDecodeRejectsUnevenShardLengths(t *testing.T) {
	c, _ := NewCoder(2, 2)
	shards := []Shard{
		{Index: 0, Data: []byte{1, 2}},
		{Index: 1, Data: []byte{3}},
	}
	if _, err := decode(c, shards); err == nil {
		t.Error("uneven shard lengths accepted")
	}
}

// Property: for random payloads, block sizes, and loss patterns that keep
// at least k shards, DecodeInto inverts EncodeAll.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(seed uint64, kRaw, plenRaw uint8) bool {
		k := int(kRaw)%16 + 1
		plen := int(plenRaw)%100 + 1
		rng := rand.New(rand.NewPCG(seed, 0xdead))
		data := randBlock(rng, k, plen)
		c, err := NewCoder(k, k)
		if err != nil {
			return false
		}
		parity, err := c.EncodeAll(data, 0, k)
		if err != nil {
			return false
		}
		all := make([]Shard, 0, 2*k)
		for i := range data {
			all = append(all, Shard{Index: i, Data: data[i]})
		}
		for i := range parity {
			all = append(all, Shard{Index: k + i, Data: parity[i]})
		}
		perm := rng.Perm(len(all))
		shards := make([]Shard, 0, k)
		for _, idx := range perm[:k] {
			shards = append(shards, all[idx])
		}
		got, err := decode(c, shards)
		if err != nil {
			return false
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func benchEncode(b *testing.B, k int) {
	const plen = 1023 // parity covers ENC packet bytes 4..1026
	rng := rand.New(rand.NewPCG(1, uint64(k)))
	data := randBlock(rng, k, plen)
	c, err := NewCoder(k, k)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(plen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeAll(data, i%k, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The per-parity-packet encode cost should grow ~linearly with k,
// the property exploited by the paper's block partitioning (Fig. 8 right).
func BenchmarkFECEncodeK1(b *testing.B)  { benchEncode(b, 1) }
func BenchmarkFECEncodeK5(b *testing.B)  { benchEncode(b, 5) }
func BenchmarkFECEncodeK10(b *testing.B) { benchEncode(b, 10) }
func BenchmarkFECEncodeK30(b *testing.B) { benchEncode(b, 30) }
func BenchmarkFECEncodeK50(b *testing.B) { benchEncode(b, 50) }

func BenchmarkFECDecodeK10AllParity(b *testing.B) {
	const k, plen = 10, 1023
	rng := rand.New(rand.NewPCG(2, 3))
	data := randBlock(rng, k, plen)
	c, _ := NewCoder(k, k)
	parity, _ := c.EncodeAll(data, 0, k)
	shards := make([]Shard, k)
	for i := range shards {
		shards[i] = Shard{Index: k + i, Data: parity[i]}
	}
	out := make([][]byte, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecodeInto(out, shards); err != nil {
			b.Fatal(err)
		}
	}
}
