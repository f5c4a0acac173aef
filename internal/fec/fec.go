// Package fec implements a systematic Reed-Solomon erasure code over
// GF(2^8), the "RSE coder" the rekey transport protocol uses to produce
// PARITY packets for each block of ENC packets.
//
// A Coder is configured with a block size k (number of data packets).
// EncodeAll produces any number m of parity packets (k+m <= 256); a receiver
// holding ANY k of the k+m packets of a block reconstructs the k data
// packets. This is the same maximum-distance-separable property as
// L. Rizzo's Vandermonde-based codec used by the paper; we derive parity
// rows from a Cauchy matrix, whose square submatrices are all invertible,
// which makes the systematic construction direct. Those submatrices are
// Cauchy matrices too, with a closed-form inverse, so a decode with m
// losses solves its m x m system in O(m^2) field operations, without
// elimination.
//
// Encoding cost for one parity packet is Theta(k * packetLen), matching
// the linear-in-k encoding-time model in the paper's Section 5.
package fec

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/gf256"
	"repro/internal/obs"
)

// MaxShards is the maximum total number of packets (data + parity) in one
// block. It is bounded by the field size.
const MaxShards = 256

// Coder encodes and decodes fixed-size packet blocks.
// A Coder is immutable after construction (SetObs aside) and safe for
// concurrent use: the code tables are read-only and every decode solves
// its own loss pattern.
type Coder struct {
	k int
	// cauchyRow(i) over data index j is 1/(x_i ^ y_j) with
	// x_i = k + i (parity index space) and y_j = j (data index space).
	// A row depends on k and i alone, so rows is a read-only prefix of
	// the table all Coders of this k share (cauchy).
	rows [][]byte
	// reg counts decode-matrix solves; nil costs a nil check.
	reg *obs.Registry
}

// NewCoder returns a Coder for blocks of k data packets able to produce
// up to maxParity parity packets. It returns an error if the shard
// counts exceed the field bound.
func NewCoder(k, maxParity int) (*Coder, error) {
	if k <= 0 {
		return nil, fmt.Errorf("fec: block size k = %d, must be positive", k)
	}
	if maxParity < 0 {
		return nil, fmt.Errorf("fec: maxParity = %d, must be non-negative", maxParity)
	}
	if k+maxParity > MaxShards {
		return nil, fmt.Errorf("fec: k+maxParity = %d exceeds %d", k+maxParity, MaxShards)
	}
	t := &cauchy[k]
	t.once.Do(func() {
		slab := make([]byte, (MaxShards-k)*k)
		t.rows = make([][]byte, MaxShards-k)
		for i := range t.rows {
			t.rows[i] = slab[i*k : (i+1)*k : (i+1)*k]
			for j := range t.rows[i] {
				t.rows[i][j] = gf256.Inv(byte(k+i) ^ byte(j))
			}
		}
	})
	return &Coder{k: k, rows: t.rows[:maxParity:maxParity]}, nil
}

// cauchy holds, per block size k, the MaxShards-k parity rows any Coder
// of that k can use, built on first use in one slab: every member holds
// a Coder, and every joiner is a new member.
var cauchy [MaxShards + 1]struct {
	once sync.Once
	rows [][]byte
}

// SetObs attaches a metrics registry (nil detaches). Returns the Coder
// for chaining.
func (c *Coder) SetObs(r *obs.Registry) *Coder {
	c.reg = r
	return c
}

// K returns the block size (number of data packets per block).
func (c *Coder) K() int { return c.k }

// MaxParity returns the maximum number of parity packets the Coder can
// produce for one block.
func (c *Coder) MaxParity() int { return len(c.rows) }

// ErrShortBlock is returned by DecodeInto when fewer than k packets of
// the block are available.
var ErrShortBlock = errors.New("fec: fewer than k packets available")

// EncodeAll computes parity packets [first, first+n) for the block in
// one pass over the data: each data packet is loaded once and
// accumulated into every parity row while it is hot in cache, instead
// of re-walking all k data packets per parity row. The n outputs share
// one row-major allocation. Parity indices are stable: packet i is the
// same bytes whatever window it is computed in, so the server can send
// fresh parity in later rounds without re-encoding earlier ones.
func (c *Coder) EncodeAll(data [][]byte, first, n int) ([][]byte, error) {
	if err := c.checkData(data); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("fec: parity count %d, must be non-negative", n)
	}
	if first < 0 || first+n > len(c.rows) {
		return nil, fmt.Errorf("fec: parity range [%d,%d) outside [0,%d)", first, first+n, len(c.rows))
	}
	plen := len(data[0])
	buf := make([]byte, n*plen)
	out := make([][]byte, n)
	for i := range out {
		out[i] = buf[i*plen : (i+1)*plen : (i+1)*plen]
	}
	for j, d := range data {
		for i := 0; i < n; i++ {
			gf256.MulAddSlice(out[i], d, c.rows[first+i][j])
		}
	}
	return out, nil
}

func errShardLen(idx, got, want int) error {
	return fmt.Errorf("fec: shard %d has length %d, want %d", idx, got, want)
}

func (c *Coder) checkData(data [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("fec: got %d data packets, coder expects k=%d", len(data), c.k)
	}
	l := len(data[0])
	for i, d := range data {
		if len(d) != l {
			return fmt.Errorf("fec: data packet %d has length %d, want %d", i, len(d), l)
		}
	}
	return nil
}

// Shard is one received packet of a block: its index in the block's
// shard space (data packets occupy [0,k), parity packet i occupies k+i)
// and its payload.
type Shard struct {
	Index int
	Data  []byte
}

// shardMask tracks which of the up-to-256 shard indices have been seen;
// the per-call map the old decoder built for this dominated its small-
// loss profile.
type shardMask [MaxShards / 64]uint64

func (m *shardMask) testAndSet(i int) bool {
	w, b := i>>6, uint(i)&63
	if m[w]&(1<<b) != 0 {
		return true
	}
	m[w] |= 1 << b
	return false
}

// DecodeInto reconstructs the k data packets of a block from any k
// received shards into out, which must have length k. Extra shards
// beyond k and duplicates are ignored; fewer than k distinct shard
// indices return ErrShortBlock. Non-nil entries with sufficient
// capacity are reused in place (a receiver draining many blocks can
// recycle one buffer set); short or nil entries are allocated.
//
// Rather than inverting the full k x k decode matrix and re-deriving
// every data packet, DecodeInto substitutes the data shards that
// arrived and solves only for the missing ones: with m losses it
// inverts an m x m Cauchy system in closed form and does O(m*k) slice
// operations of plen bytes, against a full k x k inverse's O(k^2). Any
// m distinct parity shards decode exactly, so the first m received are
// used, and each call solves its own loss pattern: a member decodes a
// block or two a message, and its loss patterns rarely repeat
// (DESIGN.md "Member receive path").
func (c *Coder) DecodeInto(out [][]byte, shards []Shard) error {
	k := c.k
	if len(out) != k {
		return fmt.Errorf("fec: out has %d slots, coder expects k=%d", len(out), k)
	}

	// Partition the received shards by index: dataPos[j] locates the
	// shard holding data packet j; parityPos collects distinct parity
	// shards. Duplicate and out-of-range indices are ignored.
	var seen shardMask
	dataPos := make([]int, k)
	for i := range dataPos {
		dataPos[i] = -1
	}
	parityPos := make([]int, len(shards))
	np := 0
	have := 0
	for i, s := range shards {
		switch {
		case s.Index >= 0 && s.Index < k:
			if !seen.testAndSet(s.Index) {
				dataPos[s.Index] = i
				have++
			}
		case s.Index >= k && s.Index < k+len(c.rows):
			if !seen.testAndSet(s.Index) {
				parityPos[np] = i
				np++
			}
		}
	}
	parityPos = parityPos[:np]
	missing := make([]int, k-have)
	nm := 0
	for j, p := range dataPos {
		if p < 0 {
			missing[nm] = j
			nm++
		}
	}
	m := len(missing)
	if m > len(parityPos) {
		return ErrShortBlock
	}
	parityPos = parityPos[:m]

	// Validate the lengths of every shard the decode will touch.
	plen := -1
	for _, p := range dataPos {
		if p >= 0 {
			plen = len(shards[p].Data)
			break
		}
	}
	if plen < 0 && m > 0 {
		plen = len(shards[parityPos[0]].Data)
	}
	for j, p := range dataPos {
		if p >= 0 && len(shards[p].Data) != plen {
			return errShardLen(j, len(shards[p].Data), plen)
		}
	}
	for _, p := range parityPos {
		if len(shards[p].Data) != plen {
			return errShardLen(shards[p].Index, len(shards[p].Data), plen)
		}
	}

	// Received data packets are already the answer: copy them through.
	for j, p := range dataPos {
		if p >= 0 {
			d := ensure(out[j], plen)
			copy(d, shards[p].Data)
			out[j] = d
		}
	}
	if m == 0 {
		return nil
	}

	coef := c.solveCoef(missing, parityPos, shards, dataPos)

	// Reconstruct each missing packet as a coefficient combination of
	// the m parity payloads followed by the k-m received data payloads.
	for ci, j := range missing {
		d := ensure(out[j], plen)
		clear(d)
		row := coef[ci*k : (ci+1)*k]
		for r, p := range parityPos {
			gf256.MulAddSlice(d, shards[p].Data, row[r])
		}
		col := m
		for _, p := range dataPos {
			if p < 0 {
				continue
			}
			if w := row[col]; w != 0 {
				gf256.MulAddSlice(d, shards[p].Data, w)
			}
			col++
		}
		out[j] = d
	}
	return nil
}

// ensure returns buf resized to n bytes, reusing its storage when the
// capacity suffices.
func ensure(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// solveCoef returns the m x k coefficient rows for the given loss
// pattern in one flat slice: row ci, coef[ci*k:(ci+1)*k], reconstructs
// missing data packet missing[ci]; its first m columns weight the
// chosen parity payloads (in parityPos order) and the remaining k-m
// columns weight the received data payloads (ascending data index).
// Each call counts one solve on obs.CDecodeCacheMiss.
//
// Derivation: each chosen parity p satisfies
// y_p = sum_j rows[p][j]*x_j, so over the missing set M,
// sum_{j in M} rows[p][j]*x_j = y_p + sum_{j received} rows[p][j]*x_j
// (addition is XOR). With A the m x m submatrix rows[p][M], the
// missing packets are x_M = A^-1*y + (A^-1*R_received)*x_received,
// which is exactly the two column groups of the returned rows.
//
// A is itself a Cauchy matrix, A[r][c] = 1/(x_r ^ y_c) with x_r the
// r-th chosen parity's shard index and y_c = missing[c], so its inverse
// has a closed form (no elimination, no pivots):
//
//	A^-1[c][r] = a_r*b_c / ((x_r ^ y_c)*e_r*f_c)
//	a_r = prod_c' (x_r ^ y_c')   b_c = prod_r' (x_r' ^ y_c)
//	e_r = prod_{r'!=r} (x_r ^ x_r')   f_c = prod_{c'!=c} (y_c ^ y_c')
//
// DecodeInto passes distinct parity indices (all >= k) and distinct
// missing indices (all < k), so no factor is zero. m <= min(k, 256-k)
// <= MaxShards/2, which bounds the stack arrays.
func (c *Coder) solveCoef(missing, parityPos []int, shards []Shard, dataPos []int) []byte {
	k, m := c.k, len(missing)
	c.reg.Inc(obs.CDecodeCacheMiss)

	// u_r = a_r/e_r and v_c = b_c/f_c, so A^-1[c][r] = u_r*v_c/(x_r^y_c).
	var x, y, u, v [MaxShards / 2]byte
	for r, p := range parityPos {
		x[r] = byte(shards[p].Index)
	}
	for ci, j := range missing {
		y[ci] = byte(j)
	}
	for i := 0; i < m; i++ {
		a, b, e, f := byte(1), byte(1), byte(1), byte(1)
		for j := 0; j < m; j++ {
			a = gf256.Mul(a, x[i]^y[j])
			b = gf256.Mul(b, x[j]^y[i])
			if j != i {
				e = gf256.Mul(e, x[i]^x[j])
				f = gf256.Mul(f, y[i]^y[j])
			}
		}
		u[i] = gf256.Mul(a, gf256.Inv(e))
		v[i] = gf256.Mul(b, gf256.Inv(f))
	}

	coef := make([]byte, m*k)
	for ci := 0; ci < m; ci++ {
		row := coef[ci*k : (ci+1)*k]
		for r := 0; r < m; r++ {
			row[r] = gf256.Mul(gf256.Mul(u[r], v[ci]), gf256.Inv(x[r]^y[ci]))
		}
		col := m
		for j, p := range dataPos {
			if p >= 0 {
				// (A^-1 * R_received)[ci][j]
				var w byte
				for r := 0; r < m; r++ {
					w ^= gf256.Mul(row[r], c.rows[int(x[r])-k][j])
				}
				row[col] = w
				col++
			}
		}
	}
	return coef
}
