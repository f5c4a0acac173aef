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
// k x k decode matrix, inverts it and multiplies every row: O(k^2)
// slice operations and a fresh inversion per call.
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
	m := gf256.NewMatrix(k, k)
	for r, s := range picked {
		if s.Index < k {
			m.Set(r, s.Index, 1)
		} else {
			copy(m.Row(r), c.rows[s.Index-k])
		}
	}
	inv, ok := m.Invert()
	if !ok {
		return nil, errors.New("fec: decode matrix singular")
	}
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, plen)
		for r, coef := range inv.Row(i) {
			if coef != 0 {
				gf256.MulAddSlice(out[i], picked[r].Data, coef)
			}
		}
	}
	return out, nil
}
