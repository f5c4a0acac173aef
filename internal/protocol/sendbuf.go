package protocol

// This file implements the pooled, reference-counted send buffers the
// transport hot path builds datagrams into. Before this pool, every
// multicast send marshalled into a fresh slice (one allocation and one
// copy per packet per round); with it, a round reuses one buffer per
// sender goroutine and the steady state allocates nothing. Reference
// counting lets one built datagram be shared across a fan-out (or an
// async sender) and returned to the pool exactly once, when the last
// holder releases it.

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// SendBuf is one pooled send buffer. Builders obtain the empty slice
// with Take, extend it with append-style marshallers (the buffer is
// pre-sized so a datagram-sized build never grows it), and publish the
// result with Store. The zero value is not usable; get one from a
// BufPool.
type SendBuf struct {
	b    []byte
	refs atomic.Int32
	pool *BufPool
}

// Take returns the buffer's backing slice truncated to length zero,
// ready for an append-style builder. The caller must hand the grown
// slice back via Store (append may have moved the backing array if the
// build exceeded the pool's buffer capacity).
func (sb *SendBuf) Take() []byte { return sb.b[:0] }

// Store publishes b -- which must derive from a Take() on this buffer
// -- as the buffer's contents, retaining any grown capacity for reuse.
func (sb *SendBuf) Store(b []byte) { sb.b = b }

// Bytes returns the current contents (the last Store).
func (sb *SendBuf) Bytes() []byte { return sb.b }

// Retain adds a reference: the buffer will not return to the pool
// until every holder has called Release.
func (sb *SendBuf) Retain() { sb.refs.Add(1) }

// Release drops one reference; the last release returns the buffer to
// its pool. Releasing more times than Get+Retain is a bug and panics.
func (sb *SendBuf) Release() {
	n := sb.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("protocol: SendBuf over-released")
	}
	sb.pool.pool.Put(sb)
}

// BufPool hands out SendBufs with at least its configured capacity,
// recycling released buffers through a sync.Pool. Reuse and fresh
// allocations are counted (obs.CSendBufReuse / obs.CSendBufAlloc) so a
// benchmark run can prove the steady state stopped allocating.
type BufPool struct {
	cap  int
	reg  *obs.Registry // nil-safe, like all registry call sites
	pool sync.Pool
}

// NewBufPool returns a pool of buffers with bufCap bytes of capacity,
// reporting reuse into reg (which may be nil).
func NewBufPool(bufCap int, reg *obs.Registry) *BufPool {
	return &BufPool{cap: bufCap, reg: reg}
}

// Get returns an empty buffer with one reference held by the caller.
func (p *BufPool) Get() *SendBuf {
	if v := p.pool.Get(); v != nil {
		sb := v.(*SendBuf)
		sb.b = sb.b[:0]
		sb.refs.Store(1)
		p.reg.Inc(obs.CSendBufReuse)
		return sb
	}
	p.reg.Inc(obs.CSendBufAlloc)
	sb := &SendBuf{pool: p}
	sb.b = make([]byte, 0, p.cap)
	sb.refs.Store(1)
	return sb
}
