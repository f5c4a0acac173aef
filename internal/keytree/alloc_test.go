package keytree

import (
	"testing"

	"repro/internal/keys"
)

// Sinks make each row's result outlive its call, as a caller's would.
var (
	sinkLen  int
	sinkEncs []Encryption
)

// TestHotPathAllocs is this package's part of the allocation gate
// (DESIGN.md "Allocation discipline"): the per-member need walk
// allocates nothing, a one-off UserNeeds once, and the wrap loop, its
// batch staged on the stack, nothing -- except without the AES-NI kernel
// (other CPUs and GOARCHes, -tags purego), where each edge builds one
// crypto/aes key schedule and nothing beside it.
func TestHotPathAllocs(t *testing.T) {
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
	edges := len(res.Encryptions)
	if edges == 0 {
		t.Fatal("batch emitted no encryptions")
	}
	// The batch's keys stand until the next one, so one span over every
	// edge, given only the IDs, rewraps exactly its encryptions.
	refill := &BatchResult{Encryptions: make([]Encryption, edges)}
	for i, e := range res.Encryptions {
		refill.Encryptions[i].ID = e.ID
	}
	schedules := 0
	if keys.AESKernel() == "generic" {
		schedules = edges
	}
	deep := res.UserIDs[0]
	for _, uid := range res.UserIDs {
		if len(res.UserNeeds(uid)) > len(res.UserNeeds(deep)) {
			deep = uid
		}
	}
	if n := len(res.UserNeeds(deep)); n < 3 {
		t.Fatalf("longest need list has %d entries, want a path of at least 3", n)
	}

	rows := []struct {
		name string
		want float64
		fn   func()
	}{
		{"NeedsWalker.Needs, every user", 0, func() {
			w := res.Walker()
			for _, uid := range res.UserIDs {
				sinkLen += len(w.Needs(uid))
			}
		}},
		// The result is sized to the path: one allocation, not one per
		// doubling from zero.
		{"UserNeeds, one user with a full path", 1, func() { sinkEncs = res.UserNeeds(deep) }},
		{"fillSpan, every edge", float64(schedules), func() { tr.fillSpan(refill, 0, edges) }},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.fn); got != r.want {
			t.Errorf("%s: %v allocs per call, want %v", r.name, got, r.want)
		}
	}
	for i, e := range refill.Encryptions {
		if e != res.Encryptions[i] {
			t.Fatalf("fillSpan rewrapped edge %d (ID %d) differently", i, e.ID)
		}
	}
}
