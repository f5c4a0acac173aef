package protocol

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestAdjustRhoIncrease checks the Fig. 11 worked example: 10 NACKs with
// requests a0>=...>=a9, target numNACK=2, k=10, rho=1: the server adds
// a2 parity packets per block, so rho becomes (a2+10)/10.
func TestAdjustRhoIncrease(t *testing.T) {
	a := []int{9, 7, 5, 4, 3, 3, 2, 2, 1, 1}
	got := AdjustRho(1.0, 10, 2, a, nil)
	want := (5.0 + 10.0) / 10.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", got, want)
	}
	if a[0] != 9 || a[9] != 1 {
		t.Fatalf("AdjustRho reordered its input: %v", a)
	}
}

func TestAdjustRhoIncreaseUnsortedInput(t *testing.T) {
	// The algorithm sorts itself.
	got := AdjustRho(1.0, 10, 1, []int{1, 9, 4}, nil)
	want := (4.0 + 10.0) / 10.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", got, want)
	}
}

func TestAdjustRhoNoChangeAtTarget(t *testing.T) {
	if got := AdjustRho(1.4, 10, 3, []int{2, 2, 1}, nil); got != 1.4 {
		t.Fatalf("rho changed to %v with exactly-target NACKs", got)
	}
}

func TestAdjustRhoDecreaseProbability(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0x5e55))
	// With zero NACKs the decrease probability is 1: rho must drop by
	// exactly one packet's worth.
	got := AdjustRho(2.0, 10, 20, nil, rng)
	want := math.Ceil(10*2.0-1) / 10 // 1.9
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", got, want)
	}
	// With size(A)*2 >= target the probability is 0: never decreases.
	for i := 0; i < 50; i++ {
		if got := AdjustRho(2.0, 10, 20, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, rng); got != 2.0 { // 10 NACKs, 2*10 >= 20
			t.Fatalf("rho decreased to %v with zero decrease probability", got)
		}
	}
}

func TestAdjustRhoZeroTarget(t *testing.T) {
	// numNACK = 0: any NACK raises rho by the largest request.
	got := AdjustRho(1.0, 10, 0, []int{3, 1}, nil)
	want := (3.0 + 10.0) / 10.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", got, want)
	}
}

// TestAdjustRhoFloor: a quiet group lowers rho to 1 and no further; a
// rho0 below 1 is left where it is.
func TestAdjustRhoFloor(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0x5e55))
	for _, tc := range []struct{ rho, want float64 }{{1, 1}, {1.05, 1}, {1.1, 1}, {0.5, 0.5}, {0, 0}} {
		if got := AdjustRho(tc.rho, 10, 20, nil, rng); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("rho %v with no NACKs -> %v, want %v", tc.rho, got, tc.want)
		}
	}
}
