package keytree

import (
	"bytes"
	"testing"

	"repro/internal/keys"
)

// buildSnapshotTree grows a tree through a few churn intervals so the
// snapshot covers joins, leaves and a refilled position.
func buildSnapshotTree(t *testing.T, seed uint64) *Tree {
	t.Helper()
	tr := New(4, keys.NewDeterministicGenerator(seed))
	boot := make([]Member, 300)
	for i := range boot {
		boot[i] = Member(i)
	}
	if _, err := tr.ProcessBatch(boot, nil); err != nil {
		t.Fatal(err)
	}
	leaves := []Member{3, 77, 150, 299}
	joins := []Member{1000, 1001, 1002}
	if _, err := tr.ProcessBatch(joins, leaves); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSnapshotDeterministic(t *testing.T) {
	tr := buildSnapshotTree(t, 7)
	s1 := tr.Snapshot()
	s2 := tr.Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatal("two snapshots of the same tree differ")
	}
	if s3 := tr.Clone().Snapshot(); !bytes.Equal(s1, s3) {
		t.Fatal("snapshot of a clone differs from the original's")
	}
	// A restored tree re-snapshots to the identical bytes.
	rt, err := Restore(s1, keys.NewDeterministicGenerator(99))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, rt.Snapshot()) {
		t.Fatal("restore-then-snapshot changed the bytes")
	}
}

func TestSnapshotRoundTripPathKeys(t *testing.T) {
	tr := buildSnapshotTree(t, 11)
	rt, err := Restore(tr.Snapshot(), keys.NewDeterministicGenerator(5))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Degree() != tr.Degree() || rt.Height() != tr.Height() || rt.N() != tr.N() {
		t.Fatalf("shape mismatch: d %d/%d h %d/%d n %d/%d",
			rt.Degree(), tr.Degree(), rt.Height(), tr.Height(), rt.N(), tr.N())
	}
	if rt.MaxKID() != tr.MaxKID() || rt.GroupKey() != tr.GroupKey() {
		t.Fatal("maxKID or group key diverged across restore")
	}
	for _, m := range tr.Members() {
		want, _ := tr.PathKeys(m)
		got, ok := rt.PathKeys(m)
		if !ok {
			t.Fatalf("member %d missing after restore", m)
		}
		if len(got) != len(want) {
			t.Fatalf("member %d: %d path keys, want %d", m, len(got), len(want))
		}
		for id, k := range want {
			if got[id] != k {
				t.Fatalf("member %d: key at node %d diverged", m, id)
			}
		}
	}
}

// TestRestoreThenProcessBatch: two restores of the same snapshot given
// same-seed generators evolve byte-identically, and a restored tree's
// batch output is structurally equal to the original's (same
// encryption IDs; ciphertexts differ because the restored generator
// draws a fresh key stream).
func TestRestoreThenProcessBatch(t *testing.T) {
	tr := buildSnapshotTree(t, 13)
	snap := tr.Snapshot()
	r1, err := Restore(snap, keys.NewDeterministicGenerator(21))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(snap, keys.NewDeterministicGenerator(21))
	if err != nil {
		t.Fatal(err)
	}
	joins := []Member{5000, 5001}
	leaves := []Member{10, 20, 1000}
	b0, err := tr.ProcessBatch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.ProcessBatch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.ProcessBatch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Encryptions) != len(b2.Encryptions) || b1.GroupKey != b2.GroupKey {
		t.Fatal("same-seed restores diverged")
	}
	for i := range b1.Encryptions {
		if b1.Encryptions[i] != b2.Encryptions[i] {
			t.Fatalf("encryption %d differs between same-seed restores", i)
		}
	}
	if len(b0.Encryptions) != len(b1.Encryptions) || b0.MaxKID != b1.MaxKID {
		t.Fatalf("restored tree evolved a different shape: %d encs maxKID %d vs %d encs maxKID %d",
			len(b1.Encryptions), b1.MaxKID, len(b0.Encryptions), b0.MaxKID)
	}
	for i := range b0.Encryptions {
		if b0.Encryptions[i].ID != b1.Encryptions[i].ID {
			t.Fatalf("encryption %d: ID %d vs %d", i, b1.Encryptions[i].ID, b0.Encryptions[i].ID)
		}
	}
	if err := r1.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	// Restore rebuilds the maintained MaxKID: a batch that leaves all
	// but the four lowest user IDs prunes it down alike on both trees.
	before := tr.MaxKID()
	leaves = tr.Members()[4:]
	b0, err = tr.ProcessBatch(nil, leaves)
	if err != nil {
		t.Fatal(err)
	}
	b1, err = r1.ProcessBatch(nil, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if b0.MaxKID >= before || b1.MaxKID != b0.MaxKID || r1.MaxKID() != b0.MaxKID {
		t.Fatalf("MaxKID %d -> %d, restored %d (tree %d)", before, b0.MaxKID, b1.MaxKID, r1.MaxKID())
	}
	if len(b0.Encryptions) != len(b1.Encryptions) {
		t.Fatalf("pruning batch: %d encryptions vs %d restored", len(b0.Encryptions), len(b1.Encryptions))
	}
	for i := range b0.Encryptions {
		if b0.Encryptions[i].ID != b1.Encryptions[i].ID {
			t.Fatalf("pruning batch, encryption %d: ID %d vs %d", i, b1.Encryptions[i].ID, b0.Encryptions[i].ID)
		}
	}
	if err := r1.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	tr := buildSnapshotTree(t, 17)
	snap := tr.Snapshot()
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXSNAP1\n"), snap[8:]...),
		"truncated": snap[:len(snap)-3],
		"trailing":  append(append([]byte(nil), snap...), 0xee),
	}
	// Flip a node kind byte to an invalid value.
	bad := append([]byte(nil), snap...)
	bad[snapHeaderSize] = 0x7f
	cases["badkind"] = bad
	for name, data := range cases {
		if _, err := Restore(data, keys.NewDeterministicGenerator(1)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

// FuzzSnapshotRestore drives a byte-derived churn schedule, snapshots,
// restores twice and checks restore-then-ProcessBatch equivalence plus
// the tree invariant.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{3, 5, 0, 200, 7, 9}, uint8(3))
	f.Add([]byte{10, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{0, 0, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, sched []byte, dRaw uint8) {
		d := 2 + int(dRaw)%4
		tr := New(d, keys.NewDeterministicGenerator(1))
		next := Member(0)
		live := []Member(nil)
		for i := 0; i+1 < len(sched) && i < 12; i += 2 {
			nj := int(sched[i]) % 40
			nl := int(sched[i+1]) % 20
			if nl > len(live) {
				nl = len(live)
			}
			var joins, leaves []Member
			for j := 0; j < nj; j++ {
				joins = append(joins, next)
				next++
			}
			for j := 0; j < nl; j++ {
				// Pick spread-out leavers; indexes shrink as we delete.
				k := (j * 7) % len(live)
				leaves = append(leaves, live[k])
				live = append(live[:k], live[k+1:]...)
			}
			live = append(live, joins...)
			if _, err := tr.ProcessBatch(joins, leaves); err != nil {
				t.Fatal(err)
			}
		}
		snap := tr.Snapshot()
		r1, err := Restore(snap, keys.NewDeterministicGenerator(2))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Restore(snap, keys.NewDeterministicGenerator(2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, r1.Snapshot()) {
			t.Fatal("restore-then-snapshot changed bytes")
		}
		if len(live) == 0 {
			return
		}
		// One more batch on both restores: must be byte-identical.
		joins := []Member{next, next + 1}
		leaves := []Member{live[0]}
		b1, err := r1.ProcessBatch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := r2.ProcessBatch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if b1.GroupKey != b2.GroupKey || len(b1.Encryptions) != len(b2.Encryptions) {
			t.Fatal("same-seed restores diverged after ProcessBatch")
		}
		for i := range b1.Encryptions {
			if b1.Encryptions[i] != b2.Encryptions[i] {
				t.Fatalf("encryption %d diverged", i)
			}
		}
		if err := r1.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}
