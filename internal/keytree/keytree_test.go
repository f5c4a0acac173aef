package keytree

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/keys"
	"repro/internal/obs"
)

func newTestTree(t testing.TB, d int, seed uint64) *Tree {
	t.Helper()
	return New(d, keys.NewDeterministicGenerator(seed))
}

// populate adds members 0..n-1 in one batch and fails the test on error.
func populate(t testing.TB, tr *Tree, n int) *BatchResult {
	t.Helper()
	joins := make([]Member, n)
	for i := range joins {
		joins[i] = Member(i)
	}
	res, err := tr.ProcessBatch(joins, nil)
	if err != nil {
		t.Fatalf("populate(%d): %v", n, err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatalf("populate(%d): %v", n, err)
	}
	return res
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, 4, 1)
	if tr.N() != 0 {
		t.Fatalf("N = %d, want 0", tr.N())
	}
	if tr.MaxKID() != -1 {
		t.Fatalf("MaxKID = %d, want -1", tr.MaxKID())
	}
	if !tr.GroupKey().Zero() {
		t.Fatal("empty tree has a group key")
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degree 1 accepted")
		}
	}()
	New(1, nil)
}

func TestPopulateBalanced(t *testing.T) {
	for _, tc := range []struct {
		d, n, wantHeight int
	}{
		{4, 1, 1}, {4, 4, 1}, {4, 5, 2}, {4, 16, 2}, {4, 64, 3},
		{4, 4096, 6}, {3, 9, 2}, {2, 8, 3}, {3, 10, 3},
	} {
		tr := newTestTree(t, tc.d, uint64(tc.n))
		populate(t, tr, tc.n)
		if tr.N() != tc.n {
			t.Errorf("d=%d n=%d: N = %d", tc.d, tc.n, tr.N())
		}
		if tr.Height() != tc.wantHeight {
			t.Errorf("d=%d n=%d: height = %d, want %d", tc.d, tc.n, tr.Height(), tc.wantHeight)
		}
	}
}

func TestPaperExampleSection2(t *testing.T) {
	// Figure 1: d=3, users u1..u9; u9 leaves. The rekey message must be
	// exactly ({k78}k7, {k78}k8, {k1-8}k123, {k1-8}k456, {k1-8}k78):
	// five encryptions, keyed by nodes u7, u8, k123, k456, k78 in
	// bottom-up order.
	tr := newTestTree(t, 3, 2)
	populate(t, tr, 9)
	// With 0-based IDs: root 0, level 1 = {1,2,3}, leaves 4..12.
	id9, ok := tr.UserID(Member(8))
	if !ok || id9 != 12 {
		t.Fatalf("u9 at node %d, want 12", id9)
	}
	oldGroupKey := tr.GroupKey()
	res, err := tr.ProcessBatch(nil, []Member{8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	wantIDs := []uint32{10, 11, 1, 2, 3}
	if len(res.Encryptions) != len(wantIDs) {
		t.Fatalf("got %d encryptions, want %d", len(res.Encryptions), len(wantIDs))
	}
	for i, e := range res.Encryptions {
		if e.ID != wantIDs[i] {
			t.Errorf("encryption %d keyed by node %d, want %d", i, e.ID, wantIDs[i])
		}
	}
	if tr.GroupKey() == oldGroupKey {
		t.Fatal("group key did not change after a leave")
	}
	if res.UpdatedKNodes != 2 {
		t.Errorf("UpdatedKNodes = %d, want 2 (k78 and root)", res.UpdatedKNodes)
	}
}

func TestUserNeedsSubsetAndSufficient(t *testing.T) {
	tr := newTestTree(t, 4, 3)
	populate(t, tr, 64)
	res, err := tr.ProcessBatch([]Member{100, 101}, []Member{5, 17, 33})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		needs := res.UserNeeds(id)
		// Every needed encryption is keyed by a node on the user's path.
		onPath := map[int]bool{}
		for p := id; p >= 0; p = tr.Parent(p) {
			onPath[p] = true
		}
		for _, e := range needs {
			if !onPath[int(e.ID)] {
				t.Fatalf("member %d: encryption %d not on path", m, e.ID)
			}
		}
	}
}

func TestJoinEqualsLeaveReplacesInPlace(t *testing.T) {
	tr := newTestTree(t, 4, 4)
	populate(t, tr, 16)
	oldID, _ := tr.UserID(Member(7))
	res, err := tr.ProcessBatch([]Member{99}, []Member{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	newID, ok := tr.UserID(Member(99))
	if !ok || newID != oldID {
		t.Fatalf("replacement member at node %d, want %d", newID, oldID)
	}
	if tr.N() != 16 {
		t.Fatalf("N = %d, want 16", tr.N())
	}
	if res.Joined != 1 || res.Left != 1 {
		t.Fatalf("Joined/Left = %d/%d", res.Joined, res.Left)
	}
}

func TestLeavesPruneTree(t *testing.T) {
	tr := newTestTree(t, 4, 5)
	populate(t, tr, 16)
	// Remove every member under one level-1 k-node: an entire subtree
	// departs, so its k-node must revert to an n-node.
	id0, _ := tr.UserID(Member(0))
	parent := tr.Parent(id0)
	if tr.nodes[parent].kind != KNode {
		t.Fatalf("parent of member 0 is %v before batch", tr.nodes[parent].kind)
	}
	var leaves []Member
	for _, m := range tr.Members() {
		id, _ := tr.UserID(m)
		if tr.Parent(id) == parent {
			leaves = append(leaves, m)
		}
	}
	if len(leaves) != 4 {
		t.Fatalf("subtree holds %d members, want 4", len(leaves))
	}
	if _, err := tr.ProcessBatch(nil, leaves); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if tr.nodes[parent].kind != NNode {
		t.Fatalf("emptied subtree root is %v, want n-node", tr.nodes[parent].kind)
	}
	if tr.N() != 12 {
		t.Fatalf("N = %d, want 12", tr.N())
	}
}

func TestAllLeaveEmptiesTree(t *testing.T) {
	tr := newTestTree(t, 3, 6)
	populate(t, tr, 9)
	var leaves []Member
	for i := 0; i < 9; i++ {
		leaves = append(leaves, Member(i))
	}
	res, err := tr.ProcessBatch(nil, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if tr.N() != 0 || tr.MaxKID() != -1 {
		t.Fatalf("N=%d MaxKID=%d after full departure", tr.N(), tr.MaxKID())
	}
	if len(res.Encryptions) != 0 {
		t.Fatalf("%d encryptions for an empty group", len(res.Encryptions))
	}
}

func TestSplitGrowsTreeAndTheorem42(t *testing.T) {
	tr := newTestTree(t, 4, 7)
	populate(t, tr, 4) // users at nodes 1..4
	oldID, _ := tr.UserID(Member(0))
	if oldID != 1 {
		t.Fatalf("member 0 at node %d, want 1", oldID)
	}
	res, err := tr.ProcessBatch([]Member{50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Node 1 split: member 0 moved to its leftmost child, 4*1+1 = 5.
	movedID, _ := tr.UserID(Member(0))
	if movedID != 5 {
		t.Fatalf("member 0 at node %d after split, want 5", movedID)
	}
	// Theorem 4.2 must rederive the move from maxKID alone.
	got, ok := NewID(4, oldID, res.MaxKID)
	if !ok || got != movedID {
		t.Fatalf("NewID(4,%d,%d) = %d,%v; want %d,true", oldID, res.MaxKID, got, ok, movedID)
	}
	// Members 1..3 did not move; NewID must be the identity for them.
	for i := 1; i < 4; i++ {
		id, _ := tr.UserID(Member(i))
		got, ok := NewID(4, id, res.MaxKID)
		if !ok || got != id {
			t.Fatalf("NewID moved stationary member %d: %d -> %d", i, id, got)
		}
	}
}

func TestNewIDUniqueness(t *testing.T) {
	// Theorem 4.2 claims a unique f(x) in (maxKID, d*maxKID+d] for any
	// old ID greater than 0. Verify exhaustively over a parameter box.
	for _, d := range []int{2, 3, 4, 8} {
		for maxKID := 0; maxKID < 300; maxKID++ {
			for m := 1; m <= d*maxKID+d; m++ {
				count := 0
				f := m
				for f <= d*maxKID+d {
					if f > maxKID {
						count++
					}
					f = d*f + 1
				}
				if count > 1 {
					t.Fatalf("d=%d maxKID=%d m=%d: %d candidates", d, maxKID, m, count)
				}
				got, ok := NewID(d, m, maxKID)
				if (count == 1) != ok {
					t.Fatalf("d=%d maxKID=%d m=%d: ok=%v, want %v", d, maxKID, m, ok, count == 1)
				}
				if ok && (got <= maxKID || got > d*maxKID+d) {
					t.Fatalf("d=%d maxKID=%d m=%d: NewID=%d out of range", d, maxKID, m, got)
				}
			}
		}
	}
}

func TestBatchRejectsBadRequests(t *testing.T) {
	tr := newTestTree(t, 4, 8)
	populate(t, tr, 8)
	if _, err := tr.ProcessBatch(nil, []Member{999}); err == nil {
		t.Error("leave of unknown member accepted")
	}
	if _, err := tr.ProcessBatch([]Member{3}, nil); err == nil {
		t.Error("join of present member accepted")
	}
	if _, err := tr.ProcessBatch([]Member{100, 100}, nil); err == nil {
		t.Error("duplicate join accepted")
	}
	if _, err := tr.ProcessBatch(nil, []Member{3, 3}); err == nil {
		t.Error("duplicate leave accepted")
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBatchIsNoOp(t *testing.T) {
	tr := newTestTree(t, 4, 9)
	populate(t, tr, 8)
	gk := tr.GroupKey()
	res, err := tr.ProcessBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Encryptions) != 0 {
		t.Fatal("empty batch produced encryptions")
	}
	if tr.GroupKey() != gk {
		t.Fatal("empty batch changed the group key")
	}
}

// TestUserViewEndToEnd runs members' client views against a random batch
// sequence: after each batch, every surviving member that applies its
// needed encryptions must hold exactly the path keys the server has.
func TestUserViewEndToEnd(t *testing.T) {
	const d = 4
	tr := newTestTree(t, d, 10)
	rng := rand.New(rand.NewPCG(10, 20))
	next := Member(0)
	views := make(map[Member]*UserView)

	join := func(n int) []Member {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = next
			next++
		}
		return ms
	}
	registerNew := func(ms []Member) {
		for _, m := range ms {
			id, ok := tr.UserID(m)
			if !ok {
				t.Fatalf("joined member %d missing from tree", m)
			}
			ik, _ := tr.IndividualKey(m)
			views[m] = NewUserView(d, m, id, ik)
		}
	}

	applyAll := func(round int, res *BatchResult) {
		for m, v := range views {
			needs := res.UserNeeds(v.mustCurrentID(t, res))
			if err := v.Apply(res.MaxKID, needs); err != nil {
				t.Fatalf("round %d member %d: %v", round, m, err)
			}
			want, _ := tr.PathKeys(m)
			for id, k := range want {
				if v.Keys[id] != k {
					t.Fatalf("round %d member %d: key at node %d diverges", round, m, id)
				}
			}
			gk, ok := v.GroupKey()
			if !ok || gk != tr.GroupKey() {
				t.Fatalf("round %d member %d: wrong group key", round, m)
			}
		}
	}

	// Initial population. New members apply their joining interval's
	// rekey message like everyone else: that is how path keys arrive.
	ms := join(37)
	res0, err := tr.ProcessBatch(ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	registerNew(ms)
	applyAll(-1, res0)

	for round := 0; round < 30; round++ {
		members := tr.Members()
		nLeave := rng.IntN(len(members)/2 + 1)
		perm := rng.Perm(len(members))
		leaves := make([]Member, 0, nLeave)
		for _, idx := range perm[:nLeave] {
			leaves = append(leaves, members[idx])
		}
		joins := join(rng.IntN(20))
		if len(joins) == 0 && len(leaves) == 0 {
			continue
		}
		res, err := tr.ProcessBatch(joins, leaves)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tr.CheckInvariant(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, m := range leaves {
			delete(views, m)
		}
		registerNew(joins)
		applyAll(round, res)
	}
}

// mustCurrentID rederives the view's post-batch ID the way the transport
// layer would, without mutating the view.
func (u *UserView) mustCurrentID(t *testing.T, res *BatchResult) int {
	t.Helper()
	id, ok := NewID(u.D, u.ID, res.MaxKID)
	if !ok {
		t.Fatalf("member %d: cannot rederive ID", u.Member)
	}
	return id
}

func TestForwardSecrecy(t *testing.T) {
	// A departed member must not be able to unwrap any encryption of the
	// batch that evicts it.
	tr := newTestTree(t, 4, 11)
	populate(t, tr, 16)
	evicted := Member(5)
	id, _ := tr.UserID(evicted)
	ik, _ := tr.IndividualKey(evicted)
	view := NewUserView(4, evicted, id, ik)
	// Give the departing member its full pre-departure key set.
	pk, _ := tr.PathKeys(evicted)
	for nid, k := range pk {
		view.Keys[nid] = k
	}
	oldGroup := tr.GroupKey()

	res, err := tr.ProcessBatch(nil, []Member{evicted})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Encryptions {
		for _, k := range view.Keys {
			if _, err := keys.Unwrap(k, e.Wrapped); err == nil {
				t.Fatalf("departed member's key unwraps encryption %d", e.ID)
			}
		}
	}
	if tr.GroupKey() == oldGroup {
		t.Fatal("group key unchanged after eviction")
	}
}

func TestBackwardSecrecy(t *testing.T) {
	// A newly joined member must not learn the previous group key: the
	// keys it can unwrap are all fresh this interval.
	tr := newTestTree(t, 4, 12)
	populate(t, tr, 16)
	oldGroup := tr.GroupKey()
	res, err := tr.ProcessBatch([]Member{200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tr.UserID(Member(200))
	ik, _ := tr.IndividualKey(Member(200))
	v := NewUserView(4, Member(200), id, ik)
	if err := v.Apply(res.MaxKID, res.UserNeeds(id)); err != nil {
		t.Fatal(err)
	}
	gk, ok := v.GroupKey()
	if !ok {
		t.Fatal("new member did not learn the group key")
	}
	if gk == oldGroup {
		t.Fatal("new group key equals the pre-join group key")
	}
	if gk != tr.GroupKey() {
		t.Fatal("new member learned the wrong group key")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := newTestTree(t, 4, 13)
	populate(t, tr, 32)
	cl := tr.Clone()
	if _, err := cl.ProcessBatch(nil, []Member{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if tr.N() != 32 {
		t.Fatalf("mutating clone changed original: N=%d", tr.N())
	}
	if cl.N() != 29 {
		t.Fatalf("clone N=%d, want 29", cl.N())
	}
	if _, ok := tr.UserID(Member(1)); !ok {
		t.Fatal("original lost a member")
	}
	if err := tr.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptionCountGrowsWithLUpToNoverD(t *testing.T) {
	// The paper observes #encryptions rises with L then falls past
	// L ~ N/d as subtrees prune away entirely.
	const n, d = 256, 4
	sizes := map[int]int{}
	for _, L := range []int{16, 64, 240} {
		tr := newTestTree(t, d, uint64(100+L))
		populate(t, tr, n)
		rng := rand.New(rand.NewPCG(uint64(L), 0))
		perm := rng.Perm(n)
		leaves := make([]Member, L)
		for i := 0; i < L; i++ {
			leaves[i] = Member(perm[i])
		}
		res, err := tr.ProcessBatch(nil, leaves)
		if err != nil {
			t.Fatal(err)
		}
		sizes[L] = len(res.Encryptions)
	}
	if !(sizes[16] < sizes[64]) {
		t.Errorf("encryptions did not grow with L: %v", sizes)
	}
	if !(sizes[240] < sizes[64]) {
		t.Errorf("encryptions did not shrink near-total departure: %v", sizes)
	}
}

func TestParentIDRelation(t *testing.T) {
	for _, d := range []int{2, 3, 4, 7} {
		for m := 0; m < 1000; m++ {
			for c := d*m + 1; c <= d*m+d; c++ {
				if ParentID(d, c) != m {
					t.Fatalf("d=%d: ParentID(%d) = %d, want %d", d, c, ParentID(d, c), m)
				}
			}
		}
		if ParentID(d, 0) != -1 {
			t.Fatalf("d=%d: root parent = %d", d, ParentID(d, 0))
		}
	}
}

func BenchmarkProcessBatchN4096L1024(b *testing.B) {
	tr := newTestTree(b, 4, 99)
	populate(b, tr, 4096)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := tr.Clone()
		members := cl.Members()
		perm := rng.Perm(len(members))
		leaves := make([]Member, 1024)
		for j := range leaves {
			leaves[j] = members[perm[j]]
		}
		b.StartTimer()
		if _, err := cl.ProcessBatch(nil, leaves); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTreeDefaults: a bare New is an empty degree-d tree of height 1
// with no k-node and no group key; Clone carries the options.
func TestTreeDefaults(t *testing.T) {
	tr := New(4, keys.NewDeterministicGenerator(1))
	if tr.Degree() != 4 || tr.Height() != 1 || tr.N() != 0 || tr.MaxKID() != -1 || !tr.GroupKey().Zero() {
		t.Errorf("bare New: d=%d h=%d N=%d maxKID=%d", tr.Degree(), tr.Height(), tr.N(), tr.MaxKID())
	}
	tr = New(4, keys.NewDeterministicGenerator(1), WithLite(true))
	res, err := tr.Clone().ProcessBatch([]Member{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encryptions[0].Wrapped != [keys.WrappedSize]byte{} {
		t.Error("Clone dropped WithLite")
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
