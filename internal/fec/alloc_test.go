package fec

import (
	"math/rand/v2"
	"testing"
)

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"). It counts what one call costs at
// steady state -- the caller's output slots already sized -- callees
// included, so a kernel or a matrix solve that starts allocating shows
// here. A contract that is an allocation is a number in the table:
// EncodeAll returns its parity in one fresh row-major buffer plus the
// slice of rows over it; DecodeInto's index scratch is sized by k and
// the loss pattern (dataPos, parityPos, and missing when anything is),
// and with a loss its callee solveCoef solves afresh into one flat
// m x k slice of coefficient rows: the closed-form inverse's products
// live in stack arrays.
func TestHotPathAllocs(t *testing.T) {
	const k, plen = 10, 1024
	c, err := NewCoder(k, MaxShards-k)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlock(rand.New(rand.NewPCG(9, 9)), k, plen)
	parity, err := c.EncodeAll(data, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Data packets 0, 4 and 7 lost, three parity packets in their place.
	var lossy, clean []Shard
	for j, d := range data {
		clean = append(clean, Shard{Index: j, Data: d})
		if j != 0 && j != 4 && j != 7 {
			lossy = append(lossy, Shard{Index: j, Data: d})
		}
	}
	for i, p := range parity {
		lossy = append(lossy, Shard{Index: k + i, Data: p})
	}
	out := make([][]byte, k)
	for j := range out {
		out[j] = make([]byte, plen)
	}
	decode := func(shards []Shard) func() {
		return func() {
			if err := c.DecodeInto(out, shards); err != nil {
				t.Fatal(err)
			}
		}
	}

	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"EncodeAll, 3 parity", 2, func() {
			if _, err := c.EncodeAll(data, 0, 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeInto, no loss", 2, decode(clean)},
		{"DecodeInto, 3 lost", 4, decode(lossy)},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
}
