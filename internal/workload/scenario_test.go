package workload

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/keytree"
	"repro/internal/obs"
)

// runScenario drives a scenario to completion, verifying the tree
// invariant after every batch, and returns a per-interval trace line
// plus the final tree.
func runScenario(t *testing.T, scn Scenario, d int, seed uint64) ([]string, *keytree.Tree) {
	t.Helper()
	dr, err := NewDriver(scn, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		line := fmt.Sprintf("i=%d j=%d l=%d", st.Interval, len(st.Joins), len(st.Leaves))
		if st.Msg != nil {
			if err := dr.Tree().CheckInvariant(); err != nil {
				t.Fatalf("interval %d: %v", st.Interval, err)
			}
			line += fmt.Sprintf(" n=%d encs=%d maxkid=%d", len(dr.Tree().Members()), len(st.Msg.Result.Encryptions), st.Msg.Result.MaxKID)
		}
		trace = append(trace, line)
	}
	return trace, dr.Tree()
}

func TestScenariosDeterministic(t *testing.T) {
	for _, build := range []func() Scenario{
		func() Scenario { return &FlashCrowd{Base: 256, Spike: 2048, SpikeAt: 2, Total: 6, Background: 4} },
		func() Scenario { return &Diurnal{Base: 256, Mean: 24, Amplitude: 0.8, Period: 6, Total: 12} },
		func() Scenario {
			return &PartitionRejoin{Base: 256, Fraction: 0.25, PartitionAt: 1, RejoinAt: 3, Total: 5}
		},
		func() Scenario { return &AdversarialLeave{Base: 256, Alpha: 0.25, At: 1, Total: 3} },
	} {
		scn := build()
		name := scn.Name()
		t.Run(name, func(t *testing.T) {
			a, _ := runScenario(t, scn, 4, 77)
			b, _ := runScenario(t, build(), 4, 77)
			if len(a) != len(b) {
				t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("traces diverge at %d:\n  %s\n  %s", i, a[i], b[i])
				}
			}
			c, _ := runScenario(t, build(), 4, 78)
			diff := len(c) != len(a)
			for i := 0; !diff && i < len(a); i++ {
				diff = a[i] != c[i]
			}
			if !diff && name != "partition-rejoin" && name != "adversarial-leave" {
				// Deterministic-but-seedless scenarios would be suspicious;
				// partition/adversarial use little randomness so may tie.
				t.Logf("note: seeds 77 and 78 produced identical traces for %s", name)
			}
		})
	}
}

func TestFlashCrowdShape(t *testing.T) {
	scn := &FlashCrowd{Base: 256, Spike: 2048, SpikeAt: 2, Total: 6, Background: 4}
	trace, tree := runScenario(t, scn, 4, 1)
	if len(trace) != 6 {
		t.Fatalf("got %d intervals", len(trace))
	}
	n := len(tree.Members())
	if n < 2048 {
		t.Fatalf("final population %d; spike of 2048 not absorbed", n)
	}
}

func TestPartitionRejoinShape(t *testing.T) {
	scn := &PartitionRejoin{Base: 256, Fraction: 0.25, PartitionAt: 1, RejoinAt: 3, Total: 5}
	dr, err := NewDriver(scn, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	var cut []keytree.Member
	pops := make(map[int]int)
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if st.Interval == 1 {
			cut = st.Leaves
		}
		if st.Interval == 3 {
			if len(st.Joins) != len(cut) {
				t.Fatalf("rejoin brought back %d of %d", len(st.Joins), len(cut))
			}
			back := make(map[keytree.Member]bool, len(cut))
			for _, m := range cut {
				back[m] = true
			}
			for _, m := range st.Joins {
				if !back[m] {
					t.Fatalf("rejoiner %d was not partitioned", m)
				}
			}
		}
		pops[st.Interval] = len(dr.Tree().Members())
	}
	if len(cut) != 64 {
		t.Fatalf("partition cut %d members, want 64", len(cut))
	}
	if pops[1] != 192 || pops[3] != 256 {
		t.Fatalf("population trajectory %v; want dip to 192 and recovery to 256", pops)
	}
}

func TestAdversarialLeaveDamage(t *testing.T) {
	// Stride-picked leavers must replace at least as many k-nodes as a
	// uniform pick of the same size -- that is the point of the scenario.
	const base, d = 1024, 4
	adversarial := func() int {
		dr, err := NewDriver(&AdversarialLeave{Base: base, Alpha: 0.1, At: 0, Total: 1}, d, 9)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		return st.Msg.Result.UpdatedKNodes
	}()
	uniform := func() int {
		g, err := NewGenerator(base, d, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := g.Batch(0, base/10)
		if err != nil {
			t.Fatal(err)
		}
		return res.UpdatedKNodes
	}()
	if adversarial < uniform {
		t.Fatalf("adversarial leave updated %d k-nodes, uniform %d", adversarial, uniform)
	}
}

func TestDiurnalSwings(t *testing.T) {
	scn := &Diurnal{Base: 512, Mean: 48, Amplitude: 0.9, Period: 8, Total: 16}
	dr, err := NewDriver(scn, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 512, 512
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		_ = st
		n := len(dr.Tree().Members())
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min < 32 {
		t.Fatalf("diurnal population barely moved: min=%d max=%d", min, max)
	}
}

func TestDriverRejectsBadConfig(t *testing.T) {
	if _, err := NewDriver(&FlashCrowd{Base: 0, Total: 1}, 4, 1); err == nil {
		t.Error("Bootstrap=0: expected error")
	}
	if _, err := NewDriver(&FlashCrowd{Base: 8, Total: 1}, 1, 1); err == nil {
		t.Error("degree=1: expected error")
	}
}

func TestDriverExhaustion(t *testing.T) {
	dr, err := NewDriver(&AdversarialLeave{Base: 8, Alpha: 0.5, At: 0, Total: 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := dr.Step(); err != nil || !ok {
		t.Fatalf("first step: ok=%v err=%v", ok, err)
	}
	if _, ok, err := dr.Step(); err != nil || ok {
		t.Fatalf("exhausted step: ok=%v err=%v", ok, err)
	}
}

func TestDriverScenarioStepsCounter(t *testing.T) {
	dr, err := NewDriver(&Diurnal{Base: 64, Mean: 8, Amplitude: 0.5, Period: 4, Total: 6}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	dr.SetObs(reg)
	applied := 0
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if st.Msg != nil {
			applied++
		}
	}
	if got := reg.CounterValue(obs.CScenarioSteps); got != int64(applied) {
		t.Fatalf("scenario_steps = %d, want %d", got, applied)
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	for _, mean := range []float64{0, 0.5, 4, 30, 200} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(mean, rng)
		}
		got := float64(sum) / n
		if mean == 0 {
			if got != 0 {
				t.Fatalf("poisson(0) mean %v", got)
			}
			continue
		}
		if got < mean*0.9 || got > mean*1.1 {
			t.Fatalf("poisson(%v) sample mean %v", mean, got)
		}
	}
}
