package rekey

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/keys"
	"repro/internal/packet"
)

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): what a member pays to file a
// shard and to turn away a stale packet, callees included. The store
// row runs a whole block through storeLocked and gives it back, as a
// message does, so it holds shardBufLocked's recycling and the block
// record's kept capacity to zero, which no check of storeLocked's own
// body could.
func TestHotPathAllocs(t *testing.T) {
	f := newAssemblyFixture(t, 71, 10, 200, false)
	id := f.ids()[0]
	k := f.rm2.Part.K
	span := make([]byte, packet.ParityPayloadLen)

	storing := f.member(t, id, nil)
	done := f.member(t, id, nil)
	own := f.ownPacket(t, id)
	if res, err := done.Ingest(f.datagram(t, own/k, own%k)); err != nil || !res.Done {
		t.Fatalf("own packet: res=%+v err=%v", res, err)
	}
	stale := f.datagram(t, 0, k)

	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"storeLocked -> shardBufLocked, a block filled and released", 0, func() {
			m := storing
			m.mu.Lock()
			defer m.mu.Unlock()
			blk := m.assemblyLocked(f.rm2.MsgID).block(0)
			for seq := 0; seq < k; seq++ {
				if !m.storeLocked(blk, uint8(seq), span) {
					t.Fatalf("shard %d not stored", seq)
				}
			}
			if m.storeLocked(blk, uint8(k), span) {
				t.Fatal("a (k+1)th shard was stored")
			}
			m.releaseShardsLocked()
		}},
		{"stalePeekLocked", 0, func() {
			m := done
			m.mu.Lock()
			defer m.mu.Unlock()
			if _, ok := m.stalePeekLocked(stale); !ok {
				t.Fatal("packet of the completed message not recognised")
			}
		}},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
	// Every joiner is a new member: its FEC coder shares the process's
	// coding table instead of building the rows of its own.
	creds := f.creds[id]
	if got := testing.AllocsPerRun(100, func() {
		if _, err := NewMember(creds); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("NewMember: %v allocs per call, want at most 4", got)
	}
}

// TestUSRSubtreeAllocs holds the one stage of buildAuth that grows with
// the group, not the batch, to a fixed number of allocations: a scratch
// datagram per goroutine and the goroutines themselves, then the tree's
// slab and level index -- nothing per user (the old loop paid a packet
// struct, a need slice grown from nil, a marshalled copy and a map slot
// for each), and no leaf array of its own: the leaves are hashed
// straight into the slab. Four times the users must cost the same
// count, at one P, where every fan-out runs inline, and at two; the
// bytes must be the slab's and a few KiB of scratch, less than a second
// leaf array would add.
func TestUSRSubtreeAllocs(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n, procs int) (allocs, bytes float64, users int) {
		s, err := NewServer(WithKeySeed(uint64(n)), WithSigner(signer))
		if err != nil {
			t.Fatal(err)
		}
		bootstrap(t, s, n)
		for m := 0; m < n/4; m++ {
			if err := s.QueueLeave(MemberID(m)); err != nil {
				t.Fatal(err)
			}
		}
		rm, err := s.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		allocs, bytes = allocsAt(procs, 10, func() {
			tree, err := rm.usrSubtree()
			if err != nil {
				t.Fatal(err)
			}
			if tree.Root() != rm.auth.usrTree.Root() {
				t.Fatal("rebuilt USR subtree has a different root")
			}
		})
		return allocs, bytes, len(rm.Result.UserIDs)
	}
	for _, procs := range []int{1, 2} {
		small, _, _ := measure(1024, procs)
		large, largeBytes, users := measure(4096, procs)
		// A level that now fans out builds its closure and starts its
		// goroutines.
		if large > small+float64(4*procs) || large > 40 {
			t.Errorf("procs=%d: %v allocs at N=1024, %v at N=4096; want no growth with N", procs, small, large)
		}
		// The slab holds fewer than 2*users hashes.
		slab := float64(2 * users * keys.HashSize)
		if budget := slab + 16<<10; largeBytes > budget {
			t.Errorf("procs=%d: %.0f bytes for %d users, want at most %.0f (a %.0f-byte slab and scratch)",
				procs, largeBytes, users, budget, slab)
		}
	}
}

// allocsAt is testing.AllocsPerRun at procs Ps, and the bytes allocated
// per run too. AllocsPerRun itself pins GOMAXPROCS to 1, where every
// fan-out runs inline and starts no goroutine.
func allocsAt(procs, runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f() // warm-up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// The seeded violations of the deleted hotpathalloc and escapes
// analyzers (their testdata/hotpathalloc and testdata/escapes fixtures),
// as functions the runtime gate is pointed at. The sinks make each
// result outlive its call, as a real caller would; where the value does
// not, the compiler keeps it on the stack and there is nothing to catch
// -- the AST heuristics flagged those all the same.
var (
	allocSinkBytes []byte
	allocSinkAny   any
	allocSinkFunc  func() int
	allocSinkStr   string
	allocSinkMap   map[int]int
)

func seededAppend(src []byte) {
	var dst []byte
	for _, b := range src {
		dst = append(dst, b)
	}
	allocSinkBytes = dst
}
func seededLiterals(n int) { allocSinkMap, allocSinkBytes = map[int]int{n: n}, []byte{byte(n)} }
func seededClosure(n int)  { allocSinkFunc = func() int { return n } }
func seededFmt(n int)      { allocSinkStr = fmt.Sprintf("%d", n) }
func seededBox(n int)      { allocSinkAny = n }
func seededMake(n int)     { allocSinkBytes = make([]byte, n) }

// seededOK is the fixtures' accepted shape: copies into a caller's
// buffer, a constant-string panic, a parameter passed through.
func seededOK(dst, src []byte) []byte {
	if len(dst) == 0 {
		panic("alloc_test: empty dst")
	}
	return dst[:copy(dst, src)]
}

// TestAllocGateSeesSeededViolations: AllocsPerRun, the one gate left,
// counts every construct the two deleted analyzers were written to
// catch, and none in the shape they accepted.
func TestAllocGateSeesSeededViolations(t *testing.T) {
	src, dst := make([]byte, 64), make([]byte, 64)
	for name, fn := range map[string]func(){
		"append growth":           func() { seededAppend(src) },
		"map and slice literals":  func() { seededLiterals(1000) },
		"closure":                 func() { seededClosure(1000) },
		"fmt.Sprintf":             func() { seededFmt(1000) },
		"interface boxing":        func() { seededBox(1000) },
		"make escaping to caller": func() { seededMake(1000) },
	} {
		if got := testing.AllocsPerRun(100, fn); got < 1 {
			t.Errorf("%s: %v allocs per call, want at least 1", name, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { allocSinkBytes = seededOK(dst, src) }); got != 0 {
		t.Errorf("accepted shape: %v allocs per call, want 0", got)
	}
}

// TestRekeyAllocs holds the ENC datagrams' cost in allocations to the
// plan's fixed terms: Rekey writes every datagram from the plan into one
// slab, with nothing per packet, and draws the joiners' keys in one
// read. Four times the group and the churn, about four times the
// packets, must cost no more than the batch at N = 1024 plus what the
// bigger UserPacket map and the doublings of the plan's packet list
// add, at one P and at two. A signed Rekey keeps that budget, plus a
// fan-out's goroutines more: its USR tree, block trees and PARITY
// trailers are one slab each, and every proof goes through a scratch
// on the stack, so nothing is paid per block, packet or user.
func TestRekeyAllocs(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n, procs int, opts ...Option) (rekey, userPacket float64, packets int) {
		s, err := NewServer(append([]Option{WithKeySeed(uint64(n))}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		bootstrap(t, s, n)
		next, churn := n, n/4
		var rm *RekeyMessage
		rekey, _ = allocsAt(procs, 10, func() {
			for i := 0; i < churn; i++ {
				if err := s.QueueLeave(MemberID(next - n + i)); err != nil {
					t.Fatal(err)
				}
				if err := s.QueueJoin(MemberID(next + i)); err != nil {
					t.Fatal(err)
				}
			}
			next += churn
			if rm, err = s.Rekey(); err != nil {
				t.Fatal(err)
			}
		})
		users := rm.Result.UserIDs
		userPacket = testing.AllocsPerRun(10, func() {
			m := make(map[int]int, len(users))
			for _, u := range users {
				m[u] = 0
			}
			allocSinkMap = m
		})
		return rekey, userPacket, len(rm.Plan.Packets)
	}
	for _, signed := range []bool{false, true} {
		var opts []Option
		slack := func(int) float64 { return 4 }
		if signed {
			// Blocks of 4 packets: 11 blocks at N = 4096 against 3 at
			// N = 1024, so a cost per block shows. The USR tree's level
			// of 2048 pairs fans out: its state, its closure and a
			// goroutine per P more.
			tun := DefaultTuning()
			tun.K = 4
			opts = []Option{WithSigner(signer), WithTuning(tun)}
			slack = func(procs int) float64 { return float64(6 + 2*procs) }
		}
		for _, procs := range []int{1, 2} {
			small, smallMap, smallPackets := measure(1024, procs, opts...)
			large, largeMap, largePackets := measure(4096, procs, opts...)
			t.Logf("signed=%v procs=%d: N=1024 %v allocs (%v map, %d packets), N=4096 %v (%v map, %d packets)",
				signed, procs, small, smallMap, smallPackets, large, largeMap, largePackets)
			if largePackets < 3*smallPackets {
				t.Fatalf("signed=%v procs=%d: %d packets at N=4096 against %d at N=1024: too few more to tell",
					signed, procs, largePackets, smallPackets)
			}
			if budget := small - smallMap + largeMap + slack(procs); large > budget {
				t.Errorf("signed=%v procs=%d: %v allocs at N=4096, want at most %v", signed, procs, large, budget)
			}
		}
	}
}

// TestWireUSRAllocs: a unicast datagram is the one allocation WireUSR
// makes, signed or not. The walk, the need list and both proofs of the
// auth trailer stay on its stack.
func TestWireUSRAllocs(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, signed := range []bool{false, true} {
		opts := []Option{WithKeySeed(5)}
		if signed {
			opts = append(opts, WithSigner(signer))
		}
		s, err := NewServer(opts...)
		if err != nil {
			t.Fatal(err)
		}
		bootstrap(t, s, 1024)
		for m := 0; m < 256; m++ {
			if err := s.QueueLeave(MemberID(m)); err != nil {
				t.Fatal(err)
			}
		}
		rm, err := s.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		if rm.Authenticated() != signed {
			t.Fatalf("signed=%v: Authenticated() = %v", signed, rm.Authenticated())
		}
		ids := rm.Result.UserIDs
		i := 0
		if got := testing.AllocsPerRun(100, func() {
			if allocSinkBytes, err = rm.WireUSR(ids[i%len(ids)]); err != nil {
				t.Fatal(err)
			}
			i += 97
		}); got != 1 {
			t.Errorf("signed=%v: WireUSR makes %v allocs, want 1", signed, got)
		}
	}
}
