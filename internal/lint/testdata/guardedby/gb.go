// Fixture for the locks analyzer's guards: `// guarded by <mu>` fields
// are only touched under that very mutex, in *Locked helpers, or on
// freshly-built values.
package gb

import "sync"

// Box mirrors the Server/Member pattern.
type Box struct {
	mu sync.Mutex
	// count is guarded by mu
	count int
	seq   uint64 // guarded by mu
	label string
}

// Inc locks before touching: the required shape.
func (b *Box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
}

// Peek reads a guarded field with no lock.
func (b *Box) Peek() int {
	return b.count // want "count is guarded by mu"
}

// bumpLocked declares via its suffix that the caller holds mu.
func (b *Box) bumpLocked() {
	b.count++
	b.seq++
}

// New touches guarded fields of a value it just built; nothing else
// can see the value yet, so no lock is needed.
func New(label string) *Box {
	b := &Box{label: label}
	b.count = 1
	b.seq = 1
	return b
}

// describe has neither lock nor Locked suffix.
func describe(b *Box) (int, uint64) {
	return b.count, b.seq // want "count is guarded by mu" "seq is guarded by mu"
}

// RBox shows that RLock satisfies the check too.
type RBox struct {
	mu  sync.RWMutex
	val int // guarded by mu
}

func (r *RBox) Get() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.val
}

// Two shows that locking the wrong mutex does not satisfy the
// annotation.
type Two struct {
	amu sync.Mutex
	bmu sync.Mutex
	a   int // guarded by amu
}

func (t *Two) Wrong() int {
	t.bmu.Lock()
	defer t.bmu.Unlock()
	return t.a // want "a is guarded by amu"
}

// Other has a mutex of the same name as Box's.
type Other struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// IncUnder locks another type's mu: the guard names Box.mu itself, so
// that satisfies nothing.
func (b *Box) IncUnder(o *Other) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
	b.count++ // want "count is guarded by mu"
}

// Lost names a mutex the struct does not have.
type Lost struct {
	mu sync.Mutex
	v  int // guarded by vmu // want "guarded by vmu names no sync.Mutex or sync.RWMutex field"
}
