package keytree

import (
	"testing"

	"repro/internal/keys"
)

// FuzzMarkingScript feeds byte-driven batch schedules (see fuzzScript)
// to the marking algorithm and checks after every batch: the tree
// invariant holds, and every member -- replaying only the maxKID field
// and the encryptions addressed to it through its client-side UserView
// -- rederives its ID and arrives at the tree's group key.
func FuzzMarkingScript(f *testing.F) {
	f.Add([]byte{0x02, 0x76, 0x05, 0x0f, 0x00, 0x3c, 0x14, 0x01, 0x0a, 0x00, 0x03, 0x28, 0x1f, 0x02, 0x00})
	f.Add([]byte{0x00, 0x1e, 0x09, 0x1f, 0x00, 0x02, 0x1f, 0x03, 0x05, 0x1f, 0x01, 0x01})
	f.Add([]byte{0x04, 0xfa, 0x03, 0x00, 0x01, 0xc8, 0x19, 0x02, 0x1e, 0x0a, 0x00, 0x50})
	f.Fuzz(func(t *testing.T, data []byte) {
		script, ok := parseFuzzScript(data)
		if !ok {
			return
		}
		tr := New(script.d, keys.NewDeterministicGenerator(script.seed))
		views := make(map[Member]*UserView)

		apply := func(round int, joins, leaves []Member) {
			res, err := tr.ProcessBatch(joins, leaves)
			if err != nil {
				t.Fatalf("round %d (d=%d, j=%d, l=%d): %v",
					round, script.d, len(joins), len(leaves), err)
			}
			if err := tr.CheckInvariant(); err != nil {
				t.Fatalf("round %d: invariant: %v", round, err)
			}
			for _, m := range leaves {
				delete(views, m)
			}
			for _, m := range joins {
				uid, ok := tr.UserID(m)
				if !ok {
					t.Fatalf("round %d: joiner %d not placed", round, m)
				}
				ik, _ := tr.IndividualKey(m)
				views[m] = NewUserView(script.d, m, uid, ik)
			}
			for m, v := range views {
				uid, ok := tr.UserID(m)
				if !ok {
					t.Fatalf("round %d: member %d lost", round, m)
				}
				if err := v.Apply(res.MaxKID, res.UserNeeds(uid)); err != nil {
					t.Fatalf("round %d: member %d replay: %v", round, m, err)
				}
				if v.ID != uid {
					t.Fatalf("round %d: member %d rederived ID %d, tree has %d",
						round, m, v.ID, uid)
				}
				gk, ok := v.GroupKey()
				if !ok || gk != res.GroupKey {
					t.Fatalf("round %d: member %d disagrees on the group key", round, m)
				}
			}
		}

		boot := make([]Member, script.base)
		for i := range boot {
			boot[i] = Member(i)
		}
		apply(-1, boot, nil)
		next := Member(script.base)
		for r := 0; r < script.rounds(); r++ {
			joins, leaves := script.churn(r, tr.Members(), &next)
			if len(joins) == 0 && len(leaves) == 0 {
				continue
			}
			apply(r, joins, leaves)
		}
	})
}
