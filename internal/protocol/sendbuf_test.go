package protocol

import (
	"testing"

	"repro/internal/obs"
)

// TestSendBufPoolReuseAndCounters asserts what the pool guarantees: a
// recycled buffer comes back empty with its capacity, every Get counts
// as exactly one allocation or one reuse, and a released buffer is
// reused within a few cycles. Not on every cycle: sync.Pool may drop any
// Put, and the race detector makes it drop some on purpose.
func TestSendBufPoolReuseAndCounters(t *testing.T) {
	reg := obs.New()
	p := NewBufPool(64, reg)

	a := p.Get()
	a.Store(append(a.Take(), 1, 2, 3))
	if got := a.Bytes(); len(got) != 3 || got[0] != 1 {
		t.Fatalf("Bytes() = %v, want [1 2 3]", got)
	}
	a.Release()

	const maxCycles = 64
	gets := 1
	for ; gets <= maxCycles && reg.CounterValue(obs.CSendBufReuse) == 0; gets++ {
		b := p.Get()
		if len(b.Bytes()) != 0 {
			t.Fatalf("recycled buffer not reset: len = %d", len(b.Bytes()))
		}
		if cap(b.Take()) < 64 {
			t.Fatalf("recycled buffer cap = %d, want >= 64", cap(b.Take()))
		}
		b.Release()
	}
	allocs, reuses := reg.CounterValue(obs.CSendBufAlloc), reg.CounterValue(obs.CSendBufReuse)
	if allocs+reuses != int64(gets) {
		t.Errorf("sendbuf_alloc %d + sendbuf_reuse %d != %d gets", allocs, reuses, gets)
	}
	if allocs < 1 || reuses < 1 {
		t.Errorf("after %d gets: sendbuf_alloc = %d, sendbuf_reuse = %d, want both >= 1", gets, allocs, reuses)
	}
}

func TestSendBufRetainBlocksRepooling(t *testing.T) {
	reg := obs.New()
	p := NewBufPool(8, reg)

	sb := p.Get() // alloc #1, refs=1
	sb.Retain()   // refs=2
	sb.Release()  // refs=1: still held, must NOT return to the pool

	other := p.Get() // pool empty -> alloc #2
	if got := reg.Snapshot().Counters["sendbuf_alloc"]; got != 2 {
		t.Fatalf("sendbuf_alloc after Get with live buffer = %d, want 2", got)
	}
	other.Release()
	sb.Release() // refs=0: now pooled
}

func TestSendBufOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	p := NewBufPool(8, nil)
	sb := p.Get()
	sb.Release()
	sb.Release()
}

// TestSendBufSteadyStateAllocs is the pool's core guarantee, and this
// package's part of the allocation gate (DESIGN.md "Allocation
// discipline"): a warm cycle through every SendBuf method -- get, build,
// a borrower's retain/read/release, the owner's release -- allocates
// nothing.
func TestSendBufSteadyStateAllocs(t *testing.T) {
	p := NewBufPool(2048, nil)
	payload := make([]byte, 1027)
	warm := p.Get()
	warm.Store(append(warm.Take(), payload...))
	warm.Release()

	allocs := testing.AllocsPerRun(100, func() {
		sb := p.Get()
		sb.Store(append(sb.Take(), payload...))
		sb.Retain()
		if len(sb.Bytes()) != len(payload) {
			t.Fatal("Bytes is not what was stored")
		}
		sb.Release()
		sb.Release()
	})
	if allocs != 0 {
		t.Errorf("allocs per get/build/retain/release cycle = %v, want 0", allocs)
	}
}
