package fec

import (
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// The references below are the simple forms of the shipped coder: a
// row-at-a-time encoder and a full-inverse decoder. The differential
// tests hold EncodeAll and DecodeInto to them byte for byte.

// decode is DecodeInto into fresh buffers.
func decode(c *Coder, shards []Shard) ([][]byte, error) {
	out := make([][]byte, c.k)
	if err := c.DecodeInto(out, shards); err != nil {
		return nil, err
	}
	return out, nil
}

// refEncode computes parity packets [first, first+n) one row at a time,
// each a fresh allocation that re-walks all k data packets.
func refEncode(c *Coder, data [][]byte, first, n int) ([][]byte, error) {
	if err := c.checkData(data); err != nil {
		return nil, err
	}
	if first < 0 || n < 0 || first+n > len(c.rows) {
		return nil, fmt.Errorf("fec: parity range [%d,%d) outside [0,%d)", first, first+n, len(c.rows))
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, len(data[0]))
		for j, d := range data {
			gf256.MulAddSlice(out[i], d, c.rows[first+i][j])
		}
	}
	return out, nil
}

// refDecode picks k shards (data first, in input order), builds the
// k x k decode matrix, inverts it by refInvert and multiplies every
// row: O(k^2) slice operations and a fresh inversion per call.
func refDecode(c *Coder, shards []Shard) ([][]byte, error) {
	k := c.k
	seen := make(map[int]bool, len(shards))
	picked := make([]Shard, 0, k)
	for _, s := range shards {
		if s.Index >= 0 && s.Index < k && !seen[s.Index] {
			seen[s.Index] = true
			picked = append(picked, s)
		}
	}
	for _, s := range shards {
		if len(picked) == k {
			break
		}
		if s.Index >= k && s.Index < k+len(c.rows) && !seen[s.Index] {
			seen[s.Index] = true
			picked = append(picked, s)
		}
	}
	if len(picked) < k {
		return nil, ErrShortBlock
	}
	plen := len(picked[0].Data)
	for _, s := range picked {
		if len(s.Data) != plen {
			return nil, errShardLen(s.Index, len(s.Data), plen)
		}
	}
	// Row r of the decode matrix is the generator row of picked[r].
	m := make([][]byte, k)
	for r, s := range picked {
		m[r] = make([]byte, k)
		if s.Index < k {
			m[r][s.Index] = 1
		} else {
			copy(m[r], c.rows[s.Index-k])
		}
	}
	inv, ok := refInvert(m)
	if !ok {
		return nil, errors.New("fec: decode matrix singular")
	}
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, plen)
		for r, coef := range inv[i] {
			if coef != 0 {
				gf256.MulAddSlice(out[i], picked[r].Data, coef)
			}
		}
	}
	return out, nil
}

// refInvert returns the inverse of the square matrix a by Gauss-Jordan
// elimination, or ok=false if a is singular. It consumes a.
func refInvert(a [][]byte) (inv [][]byte, ok bool) {
	n := len(a)
	inv = make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		a[pivot], a[col] = a[col], a[pivot]
		inv[pivot], inv[col] = inv[col], inv[pivot]
		// Scale the pivot row so the pivot element is 1.
		pi := gf256.Inv(a[col][col])
		for j := 0; j < n; j++ {
			a[col][j] = gf256.Mul(a[col][j], pi)
			inv[col][j] = gf256.Mul(inv[col][j], pi)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if f := a[r][col]; r != col && f != 0 {
				gf256.MulAddSlice(a[r], a[col], f)
				gf256.MulAddSlice(inv[r], inv[col], f)
			}
		}
	}
	return inv, true
}
