package keytree

import (
	"testing"

	"repro/internal/keys"
)

// FuzzMarkingAdversarial feeds the marking algorithm byte-driven
// sequences of batches whose leave sets follow adversarial patterns
// (strided, prefix, suffix, scattered; see fuzzScript), checking after
// every batch that the tree invariant holds and that no key a leaver
// held survives -- the tree-level statement of forward secrecy. A
// diffPair replays every batch against the whole-array reference.
func FuzzMarkingAdversarial(f *testing.F) {
	f.Add([]byte{3, 40, 1, 8, 0, 10, 4, 1, 20, 0, 2, 5})
	f.Add([]byte{1, 200, 7, 0, 3, 99, 0, 2, 50, 16, 1, 3, 0, 0, 1})
	f.Add([]byte{5, 16, 9, 2, 2, 8})
	f.Add(seedGrowShrink)
	f.Fuzz(func(t *testing.T, data []byte) {
		script, ok := parseFuzzScript(data)
		if !ok {
			return
		}
		tr := New(script.d, keys.NewDeterministicGenerator(script.seed))
		pair := newDiffPair(script.d, script.seed)
		joins := make([]Member, script.base)
		for i := range joins {
			joins[i] = Member(i)
		}
		pair.step(t, joins, nil)
		if _, err := tr.ProcessBatch(joins, nil); err != nil {
			t.Fatal(err)
		}
		next := Member(script.base)

		// Key values any past leaver ever held. Keys are fresh CSPRNG (here
		// deterministic-stream) output, so no value may legitimately recur.
		departed := make(map[keys.Key]bool)

		for r := 0; r < script.rounds(); r++ {
			joins, leaves := script.churn(r, tr.Members(), &next)
			if len(joins) == 0 && len(leaves) == 0 {
				continue
			}

			// Record every key each leaver currently holds: its individual
			// key and the k-node keys up its path.
			for _, m := range leaves {
				uid, ok := tr.UserID(m)
				if !ok {
					t.Fatalf("leaver %d not in tree", m)
				}
				for id := uid; id >= 0; id = ParentID(script.d, id) {
					if k, _, ok := tr.NodeKey(id); ok {
						departed[k] = true
					}
				}
			}

			pair.step(t, joins, leaves)
			if _, err := tr.ProcessBatch(joins, leaves); err != nil {
				t.Fatalf("round %d (d=%d, j=%d, l=%d): %v",
					r, script.d, len(joins), len(leaves), err)
			}
			if err := tr.CheckInvariant(); err != nil {
				t.Fatalf("round %d: invariant: %v", r, err)
			}
			// Forward secrecy at the tree level: no surviving node may hold
			// a key any departed member ever held.
			violations := 0
			tr.ForEachKNode(func(id int, k keys.Key) {
				if departed[k] {
					violations++
				}
			})
			for _, m := range tr.Members() {
				if k, ok := tr.IndividualKey(m); ok && departed[k] {
					violations++
				}
			}
			if violations > 0 {
				t.Fatalf("round %d: %d surviving nodes hold departed keys", r, violations)
			}
		}
	})
}

// dedupMembers removes duplicates preserving first occurrence.
func dedupMembers(ms []Member) []Member {
	seen := make(map[Member]bool, len(ms))
	out := ms[:0]
	for _, m := range ms {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
