// Fixture: two lock classes lockRanks does not list, acquired in both
// orders -- the canonical deadlock shape. Only ranked classes may nest,
// so each nesting is a finding on its own, and with them the cycle.
package cycle

import "sync"

type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
	a  *A
}

func (a *A) Forward() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b.mu.Lock() // want "acquires cycle.B.mu while holding cycle.A.mu; cycle.A.mu is unranked"
	a.b.mu.Unlock()
}

func (b *B) Backward() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.a.mu.Lock() // want "acquires cycle.A.mu while holding cycle.B.mu; cycle.B.mu is unranked"
	b.a.mu.Unlock()
}
