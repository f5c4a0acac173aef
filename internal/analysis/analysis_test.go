package analysis

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/keys"
	"repro/internal/keytree"
)

func TestLnChoose(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want float64
	}{{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {52, 5, 2598960}} {
		got := math.Exp(lnChoose(tc.n, tc.k))
		if math.Abs(got-tc.want)/tc.want > 1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}
	if !math.IsInf(lnChoose(3, 5), -1) {
		t.Error("C(3,5) not -Inf")
	}
}

func TestExpectedEncryptionsEdgeCases(t *testing.T) {
	if _, err := ExpectedEncryptionsLeave(100, 4, 10); err == nil {
		t.Error("non-power-of-d N accepted")
	}
	if _, err := ExpectedEncryptionsLeave(64, 4, -1); err == nil {
		t.Error("negative L accepted")
	}
	got, err := ExpectedEncryptionsLeave(64, 4, 0)
	if err != nil || got != 0 {
		t.Errorf("L=0: %v, %v", got, err)
	}
	// All users leave: the tree empties, no encryptions.
	got, err = ExpectedEncryptionsLeave(64, 4, 64)
	if err != nil || got != 0 {
		t.Errorf("L=N: %v, %v", got, err)
	}
}

func TestSingleLeaveClosedForm(t *testing.T) {
	// One departure updates exactly the h nodes on its path; the level-l
	// ancestor emits d encryptions minus the departed child edge at the
	// deepest level: total = h*d - 1.
	for _, tc := range []struct{ N, d int }{{64, 4}, {256, 4}, {27, 3}, {8, 2}} {
		h := int(math.Round(math.Log(float64(tc.N)) / math.Log(float64(tc.d))))
		want := float64(h*tc.d - 1)
		got, err := ExpectedEncryptionsLeave(tc.N, tc.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("N=%d d=%d: E=%v, want %v", tc.N, tc.d, got, want)
		}
	}
}

// TestClosedFormMatchesMarkingAlgorithm is the package's central
// cross-validation: the closed form must match Monte Carlo runs of the
// actual marking algorithm within sampling error.
func TestClosedFormMatchesMarkingAlgorithm(t *testing.T) {
	const d = 4
	for _, tc := range []struct{ N, L int }{
		{256, 16}, {256, 64}, {256, 200}, {1024, 256}, {64, 1},
	} {
		want, err := ExpectedEncryptionsLeave(tc.N, d, tc.L)
		if err != nil {
			t.Fatal(err)
		}
		tr := keytree.New(d, keys.NewDeterministicGenerator(uint64(tc.N*tc.L)))
		joins := make([]keytree.Member, tc.N)
		for i := range joins {
			joins[i] = keytree.Member(i)
		}
		if _, err := tr.ProcessBatch(joins, nil); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(tc.N), uint64(tc.L)))
		const trials = 60
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			cl := tr.Clone()
			members := cl.Members()
			perm := rng.Perm(len(members))
			leaves := make([]keytree.Member, tc.L)
			for i := range leaves {
				leaves[i] = members[perm[i]]
			}
			res, err := cl.ProcessBatch(nil, leaves)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(len(res.Encryptions))
		}
		got := sum / trials
		// Allow 5% relative plus small absolute sampling slack.
		if math.Abs(got-want) > 0.05*want+3 {
			t.Errorf("N=%d L=%d: simulated %.1f, closed form %.1f", tc.N, tc.L, got, want)
		}
	}
}

func TestUpdatedKNodesMatchesMarking(t *testing.T) {
	const d, N, L = 4, 256, 64
	want, err := ExpectedUpdatedKNodes(N, d, L)
	if err != nil {
		t.Fatal(err)
	}
	tr := keytree.New(d, keys.NewDeterministicGenerator(5))
	joins := make([]keytree.Member, N)
	for i := range joins {
		joins[i] = keytree.Member(i)
	}
	if _, err := tr.ProcessBatch(joins, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	const trials = 60
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		cl := tr.Clone()
		members := cl.Members()
		perm := rng.Perm(len(members))
		leaves := make([]keytree.Member, L)
		for i := range leaves {
			leaves[i] = members[perm[i]]
		}
		res, err := cl.ProcessBatch(nil, leaves)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(res.UpdatedKNodes)
	}
	got := sum / trials
	if math.Abs(got-want) > 0.05*want+2 {
		t.Errorf("simulated %.1f updated k-nodes, closed form %.1f", got, want)
	}
}

func TestEncryptionsRiseThenFallInL(t *testing.T) {
	// The paper's observation: encryptions peak near L = N/d.
	const N, d = 4096, 4
	small, _ := ExpectedEncryptionsLeave(N, d, 64)
	peak, _ := ExpectedEncryptionsLeave(N, d, N/d)
	large, _ := ExpectedEncryptionsLeave(N, d, N-64)
	if !(small < peak && large < peak) {
		t.Errorf("no peak near N/d: %v %v %v", small, peak, large)
	}
}

func TestServerWorkAndCapacity(t *testing.T) {
	c := Costs{Sign: 5e-3, Wrap: 1e-6, ParityPerBlockByte: 2e-6, PacketLen: 1027}
	w1, err := ServerWork(c, 1024, 4, 0.25, 10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ServerWork(c, 4096, 4, 0.25, 10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if w2 <= w1 {
		t.Errorf("work not increasing in N: %v vs %v", w1, w2)
	}
	small, err := MaxGroupSize(c, 4, 0.25, 10, 1.5, 0.050)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MaxGroupSize(c, 4, 0.25, 10, 1.5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("capacity not increasing in interval: %d vs %d", small, large)
	}
	if large < 4096 {
		t.Errorf("a 60 s interval supports only %d users; model broken", large)
	}
}
