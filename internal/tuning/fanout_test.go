package tuning

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid reads the calling goroutine's ID off its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// scratchOf is one goroutine's FanOut state: the goroutine it was made
// on.
type scratchOf struct{ owner uint64 }

// TestFanOut: at 1, 2 and 8 Ps, every index of [0, n) is handed out
// exactly once; a single piece runs on the caller's goroutine; no more
// goroutines than Ps run pieces, each calls the factory once and runs
// its pieces with its own state; and a failure returns the earliest
// failed piece's error.
func TestFanOut(t *testing.T) {
	const grain = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 10*grain + 3} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				caller := goid()
				var mu sync.Mutex
				made := map[uint64]int{} // factory calls by goroutine
				ran := map[uint64]bool{} // goroutines that ran a piece
				hits := make([]atomic.Int32, n)
				err := FanOut(n, grain, func() *scratchOf {
					id := goid()
					mu.Lock()
					made[id]++
					mu.Unlock()
					return &scratchOf{owner: id}
				}, func(s *scratchOf, lo, hi int) error {
					id := goid()
					if s.owner != id {
						t.Errorf("[%d, %d) ran on goroutine %d with goroutine %d's state", lo, hi, id, s.owner)
					}
					if lo%grain != 0 || hi != min(lo+grain, n) {
						t.Errorf("piece [%d, %d) is not cut at multiples of %d", lo, hi, grain)
					}
					mu.Lock()
					ran[id] = true
					mu.Unlock()
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Errorf("index %d handed out %d times", i, h)
					}
				}
				pieces := (n + grain - 1) / grain
				if len(made) > min(procs, pieces) {
					t.Errorf("%d goroutines made state, want at most %d", len(made), min(procs, pieces))
				}
				for id, calls := range made {
					if calls != 1 {
						t.Errorf("goroutine %d called the factory %d times", id, calls)
					}
				}
				for id := range ran {
					if made[id] == 0 {
						t.Errorf("goroutine %d ran a piece without making state", id)
					}
				}
				if n > 0 && (pieces == 1 || procs == 1) {
					if len(ran) != 1 || !ran[caller] || len(made) != 1 {
						t.Errorf("one piece or one P: pieces ran on %v, state made on %v, want only the caller %d", ran, made, caller)
					}
				}
			})
		}

		// Pieces 3 and 7 fail: whichever fails first, FanOut reports 3,
		// as a serial loop would.
		errAt := map[int]error{3: errors.New("piece 3"), 7: errors.New("piece 7")}
		for rep := 0; rep < 50; rep++ {
			err := FanOut(10*grain+3, grain, nil, func(_ struct{}, lo, hi int) error {
				return errAt[lo/grain]
			})
			if !errors.Is(err, errAt[3]) {
				t.Fatalf("procs=%d: FanOut returned %v, want piece 3's error", procs, err)
			}
		}
	}
}
