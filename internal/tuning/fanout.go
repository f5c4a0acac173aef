package tuning

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut calls body over [0, n), cut into pieces [lo, hi) of grain
// indices, the last one possibly shorter. Up to GOMAXPROCS goroutines,
// the caller's among them, take pieces off one shared cursor, so pieces
// of uneven cost balance themselves. Each goroutine first calls scratch
// (when not nil) for state of its own -- a wrap context, a walker, a
// buffer -- and hands it to every piece it runs. With one piece, or one
// P, the pieces run in order on the calling goroutine.
//
// Once a piece fails no further piece is handed out. FanOut waits for
// the running ones and returns the error of the earliest failed piece,
// the one a serial loop would have stopped at. Which later pieces ran
// is unspecified, so a piece must write only what it owns.
func FanOut[S any](n, grain int, scratch func() S, body func(s S, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	pieces := (n + grain - 1) / grain
	f := &fan[S]{n: n, grain: grain, scratch: scratch, body: body, errs: make([]error, pieces)}
	procs := min(runtime.GOMAXPROCS(0), pieces)
	f.wg.Add(procs)
	for range procs - 1 {
		go f.run()
	}
	f.run()
	f.wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fan is one FanOut call's shared state.
type fan[S any] struct {
	n, grain int
	scratch  func() S
	body     func(s S, lo, hi int) error
	next     atomic.Int64 // the next piece to hand out
	errs     []error      // by piece; each written by the piece's goroutine
	wg       sync.WaitGroup
}

// run is one goroutine's loop: take a piece and run it, until none is
// left or one fails.
func (f *fan[S]) run() {
	defer f.wg.Done()
	var s S
	if f.scratch != nil {
		s = f.scratch()
	}
	for {
		p := int(f.next.Add(1) - 1)
		if p >= len(f.errs) {
			return
		}
		lo := p * f.grain
		if f.errs[p] = f.body(s, lo, min(lo+f.grain, f.n)); f.errs[p] != nil {
			f.next.Add(int64(len(f.errs))) // hand out nothing more
			return
		}
	}
}
