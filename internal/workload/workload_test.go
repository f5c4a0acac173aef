package workload

import "testing"

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(0, 4, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewGenerator(10, 1, 1); err == nil {
		t.Error("d=1 accepted")
	}
}

func TestBatchLeavesPristineIntact(t *testing.T) {
	gen, err := NewGenerator(256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := gen.Batch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := gen.Batch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Each batch starts from the same 256-user tree.
	if len(r1.UserIDs) != 192 || len(r2.UserIDs) != 192 {
		t.Fatalf("post-batch sizes %d, %d; want 192", len(r1.UserIDs), len(r2.UserIDs))
	}
}

func TestBatchesAreIndependentDraws(t *testing.T) {
	gen, err := NewGenerator(256, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := gen.Batch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := gen.Batch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	if len(r1.UserIDs) == len(r2.UserIDs) {
		for i := range r1.UserIDs {
			if r1.UserIDs[i] != r2.UserIDs[i] {
				same = false
				break
			}
		}
	} else {
		same = false
	}
	if same {
		t.Fatal("two batches removed identical leaver sets; RNG not advancing")
	}
}

func TestBatchRejectsOversizedLeave(t *testing.T) {
	gen, err := NewGenerator(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gen.Batch(0, 17); err == nil {
		t.Fatal("L>N accepted")
	}
}

func TestJoinsGetFreshMembers(t *testing.T) {
	gen, err := NewGenerator(64, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := gen.Batch(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.UserIDs) != 80 {
		t.Fatalf("post-batch users %d, want 80", len(r.UserIDs))
	}
}
