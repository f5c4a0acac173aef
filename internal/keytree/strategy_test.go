package keytree

import (
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/obs"
)

func TestStrategyRegistry(t *testing.T) {
	names := StrategyNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("StrategyNames not sorted: %v", names)
	}
	for _, want := range []string{StrategyPaper, StrategyBatchPlace, StrategyLeftmost} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("strategy %q not registered (have %v)", want, names)
		}
		s, err := NewStrategy(want)
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", want, err)
		}
		if s.Name() != want {
			t.Errorf("NewStrategy(%q).Name() = %q", want, s.Name())
		}
	}

	s, err := NewStrategy("")
	if err != nil {
		t.Fatalf("empty strategy name: %v", err)
	}
	if s.Name() != StrategyPaper {
		t.Errorf("empty name resolved to %q, want %q", s.Name(), StrategyPaper)
	}

	if _, err := NewStrategy("no-such-strategy"); err == nil {
		t.Error("unknown strategy name accepted")
	} else if !strings.Contains(err.Error(), "no-such-strategy") {
		t.Errorf("unknown-strategy error %q does not name the strategy", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterStrategy did not panic")
		}
	}()
	RegisterStrategy(StrategyPaper, func() Strategy { return PaperMarking{} })
}

// TestTreeDefaults: a bare New uses PaperMarking; WithStrategy(nil)
// keeps it; Clone carries the strategy.
func TestTreeDefaults(t *testing.T) {
	tr := New(4, keys.NewDeterministicGenerator(1))
	if tr.StrategyName() != StrategyPaper {
		t.Errorf("default strategy = %q, want %q", tr.StrategyName(), StrategyPaper)
	}
	tr = New(4, keys.NewDeterministicGenerator(1), WithStrategy(nil))
	if tr.StrategyName() != StrategyPaper {
		t.Errorf("WithStrategy(nil) replaced the default with %q", tr.StrategyName())
	}
	tr = New(4, keys.NewDeterministicGenerator(1), WithStrategy(LeftmostCompact{}))
	if got := tr.Clone().StrategyName(); got != StrategyLeftmost {
		t.Errorf("Clone strategy = %q, want %q", got, StrategyLeftmost)
	}
}

// TestWithLiteMatchesFullCounts: a lite tree emits the same
// encryption IDs and counts as a full tree, just without ciphertext.
func TestWithLiteMatchesFullCounts(t *testing.T) {
	reg := obs.New()
	full := New(3, keys.NewDeterministicGenerator(42),
		WithWorkers(2), WithObs(reg), WithLite(false))

	joins := make([]Member, 50)
	for i := range joins {
		joins[i] = Member(i)
	}
	r1, err := full.ProcessBatch(joins, nil)
	if err != nil {
		t.Fatal(err)
	}

	lite := New(3, keys.NewDeterministicGenerator(42), WithLite(true))
	r3, err := lite.ProcessBatch(joins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Encryptions) != len(r1.Encryptions) {
		t.Fatalf("lite emitted %d encryptions, full %d", len(r3.Encryptions), len(r1.Encryptions))
	}
	if r3.Encryptions[0].Wrapped != [keys.WrappedSize]byte{} {
		t.Error("WithLite(true) still materialised ciphertext")
	}
}

// costSchedule drives the fixed two-interval schedule that separates
// the strategies: a bootstrap, then clustered departures on the left
// and right edges, then a batch whose departures extend the right
// cluster while more joiners arrive than left. Returns the final
// batch's encryption count.
func costSchedule(t *testing.T, name string) int {
	t.Helper()
	s, err := NewStrategy(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(4, keys.NewDeterministicGenerator(11), WithStrategy(s))
	boot := make([]Member, 1024)
	for i := range boot {
		boot[i] = Member(i)
	}
	if _, err := tr.ProcessBatch(boot, nil); err != nil {
		t.Fatal(err)
	}
	var lv []Member
	for i := 0; i < 64; i++ {
		lv = append(lv, Member(i))
	}
	for i := 900; i < 964; i++ {
		lv = append(lv, Member(i))
	}
	if _, err := tr.ProcessBatch(nil, lv); err != nil {
		t.Fatal(err)
	}
	var lv2 []Member
	for i := 964; i < 1000; i++ {
		lv2 = append(lv2, Member(i))
	}
	jn := make([]Member, 68)
	for i := range jn {
		jn[i] = Member(100000 + i)
	}
	res, err := tr.ProcessBatch(jn, lv2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return len(res.Encryptions)
}

// TestBatchPlaceBeatsBaselines pins the strategies' relative encryption
// cost on a schedule with holes in both marked and unmarked regions:
// BatchPlace routes the surplus joiners into holes whose root paths this
// batch's departures already marked, PaperMarking refills departures but
// sends the surplus to the lowest IDs regardless of marking, and
// LeftmostCompact ignores departure positions entirely. Each choice
// marks strictly more fresh root paths than the one before it.
func TestBatchPlaceBeatsBaselines(t *testing.T) {
	bp := costSchedule(t, StrategyBatchPlace)
	pm := costSchedule(t, StrategyPaper)
	lc := costSchedule(t, StrategyLeftmost)
	t.Logf("encryptions: batchplace=%d paper=%d leftmost=%d", bp, pm, lc)
	if bp >= pm {
		t.Errorf("batchplace emitted %d encryptions, paper %d; want strictly fewer", bp, pm)
	}
	if pm >= lc {
		t.Errorf("paper emitted %d encryptions, leftmost %d; want strictly fewer", pm, lc)
	}
}

// TestAppendUserNeeds: the append forms match the allocating forms and
// honour a reused buffer.
func TestAppendUserNeeds(t *testing.T) {
	tr := New(4, keys.NewDeterministicGenerator(3))
	joins := make([]Member, 200)
	for i := range joins {
		joins[i] = Member(i)
	}
	if _, err := tr.ProcessBatch(joins, nil); err != nil {
		t.Fatal(err)
	}
	res, err := tr.ProcessBatch([]Member{300, 301}, []Member{5, 90, 150})
	if err != nil {
		t.Fatal(err)
	}

	var encBuf []Encryption
	var idBuf []uint32
	for _, uid := range res.UserIDs {
		wantE := res.UserNeeds(uid)
		encBuf = res.AppendUserNeeds(encBuf[:0], uid)
		if len(encBuf) != len(wantE) {
			t.Fatalf("user %d: AppendUserNeeds len %d, UserNeeds len %d", uid, len(encBuf), len(wantE))
		}
		for i := range wantE {
			if encBuf[i] != wantE[i] {
				t.Fatalf("user %d: encryption %d differs", uid, i)
			}
		}
		wantIDs := res.UserNeedIDs(uid)
		idBuf = res.AppendUserNeedIDs(idBuf[:0], uid)
		if len(idBuf) != len(wantIDs) {
			t.Fatalf("user %d: AppendUserNeedIDs len %d, UserNeedIDs len %d", uid, len(idBuf), len(wantIDs))
		}
		for i := range wantIDs {
			if idBuf[i] != wantIDs[i] {
				t.Fatalf("user %d: need ID %d differs", uid, i)
			}
		}
	}

	// Appending to a non-empty prefix preserves it.
	prefix := []uint32{7, 8, 9}
	got := res.AppendUserNeedIDs(prefix, res.UserIDs[0])
	if len(got) < 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Error("AppendUserNeedIDs clobbered the existing prefix")
	}
}

// TestNeedsWalkerMatchesPathWalk holds the walker to the walk it
// replaced -- one lookup per node from the user up to the root -- on all
// four batch shapes: in UserIDs order with one walker (the shared-chain
// path), then in shuffled order and over IDs that are no user's, where
// the cached chain must be dropped whenever the parent changes.
func TestNeedsWalkerMatchesPathWalk(t *testing.T) {
	pathWalk := func(res *BatchResult, id int) []int32 {
		var want []int32
		for ; id >= 0; id = ParentID(res.d, id) {
			if i, ok := res.lookup(id); ok {
				want = append(want, int32(i))
			}
		}
		return want
	}
	tr := New(4, keys.NewDeterministicGenerator(0x5eed))
	rng := rand.New(rand.NewPCG(5, 5))
	for _, b := range [][2][2]int{ // joins, leaves as [first, count]
		{{0, 700}, {}}, {{700, 300}, {}}, {{}, {100, 250}}, {{1000, 120}, {500, 120}},
	} {
		var joins, leaves []Member
		for m := b[0][0]; m < b[0][0]+b[0][1]; m++ {
			joins = append(joins, Member(m))
		}
		for m := b[1][0]; m < b[1][0]+b[1][1]; m++ {
			leaves = append(leaves, Member(m))
		}
		res, err := tr.ProcessBatch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		ids := append([]int(nil), res.UserIDs...)
		w := res.Walker()
		for _, id := range ids {
			if got, want := w.Needs(id), pathWalk(res, id); !slices.Equal(got, want) {
				t.Fatalf("in order, user %d: needs %v, want %v", id, got, want)
			}
		}
		ids = append(ids, 0, 1, res.MaxKID, 0xfffe)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			if got, want := w.Needs(id), pathWalk(res, id); !slices.Equal(got, want) {
				t.Fatalf("shuffled, node %d: needs %v, want %v", id, got, want)
			}
		}
	}
}
