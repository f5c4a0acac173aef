package fec

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// TestEncodeAllMatchesEncode is the differential test for the one-pass
// encoder: for a sweep of (k, parity window, packet length) it must
// produce byte-identical output to the row-at-a-time refEncode.
func TestEncodeAllMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, k := range []int{1, 2, 5, 10, 20, 50} {
		for _, plen := range []int{1, 7, 64, 1027} {
			c, err := NewCoder(k, k+3)
			if err != nil {
				t.Fatal(err)
			}
			data := randBlock(rng, k, plen)
			for _, win := range [][2]int{{0, 0}, {0, 1}, {0, k}, {1, k}, {3, k - 1}, {0, k + 3}} {
				first, n := win[0], win[1]
				want, err := refEncode(c, data, first, n)
				if err != nil {
					t.Fatalf("refEncode(k=%d, first=%d, n=%d): %v", k, first, n, err)
				}
				got, err := c.EncodeAll(data, first, n)
				if err != nil {
					t.Fatalf("EncodeAll(k=%d, first=%d, n=%d): %v", k, first, n, err)
				}
				if len(got) != len(want) {
					t.Fatalf("EncodeAll returned %d packets, want %d", len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("EncodeAll(k=%d, plen=%d, first=%d, n=%d) differs at parity %d", k, plen, first, n, i)
					}
				}
			}
		}
	}
}

func TestEncodeAllErrors(t *testing.T) {
	c, err := NewCoder(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	data := randBlock(rng, 3, 16)
	if _, err := c.EncodeAll(data, 0, -1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := c.EncodeAll(data, -1, 1); err == nil {
		t.Error("negative first accepted")
	}
	if _, err := c.EncodeAll(data, 2, 2); err == nil {
		t.Error("range past MaxParity accepted")
	}
	if _, err := c.EncodeAll(data[:2], 0, 1); err == nil {
		t.Error("short block accepted")
	}
	uneven := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 15)}
	if _, err := c.EncodeAll(uneven, 0, 1); err == nil {
		t.Error("uneven packet lengths accepted")
	}
}

// TestEncodeAllOutputsIndependent ensures the shared backing allocation
// does not let writes to one parity packet bleed into another.
func TestEncodeAllOutputsIndependent(t *testing.T) {
	c, _ := NewCoder(4, 4)
	rng := rand.New(rand.NewPCG(9, 9))
	data := randBlock(rng, 4, 32)
	out, err := c.EncodeAll(data, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want2 := append([]byte(nil), out[2]...)
	for i := range out[1] {
		out[1][i] = 0xAA
	}
	out[1] = append(out[1], 0xBB) // capacity is clipped: must not spill into out[2]
	if !bytes.Equal(out[2], want2) {
		t.Fatal("mutating one parity packet altered its neighbour")
	}
}
