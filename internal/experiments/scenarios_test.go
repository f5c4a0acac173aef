package experiments

import (
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/workload"
)

// TestScenarioMatrix runs every scenario x impairment cell at quick
// scale and requires all three oracles to pass in each.
func TestScenarioMatrix(t *testing.T) {
	opts := Options{Quick: true, Seed: 7}
	for _, ss := range ScenarioSpecs() {
		for _, is := range ImpairmentSpecs() {
			ss, is := ss, is
			t.Run(ss.ID+"/"+is.ID, func(t *testing.T) {
				t.Parallel()
				cell := runScenarioCell(ss, is, opts.fill())
				if cell.Err != "" {
					t.Fatalf("cell failed: %s", cell.Err)
				}
				if !cell.OK {
					t.Fatalf("cell not OK: %+v", cell)
				}
				if cell.Violations != 0 {
					t.Fatalf("%d oracle violations", cell.Violations)
				}
				if cell.Rekeys == 0 || cell.Checks == 0 {
					t.Fatalf("vacuous cell: rekeys=%d checks=%d", cell.Rekeys, cell.Checks)
				}
				// Every rekeyed interval ran one batch check and one
				// recovery check.
				if cell.Checks != int64(2*cell.Rekeys) {
					t.Fatalf("checks=%d, want %d (2 per rekey)", cell.Checks, 2*cell.Rekeys)
				}
			})
		}
	}
}

// TestScenarioCellDeterministic runs one cell twice with the same seed
// and requires identical rendered rows.
func TestScenarioCellDeterministic(t *testing.T) {
	opts := Options{Quick: true, Seed: 13}.fill()
	ss := ScenarioSpecs()[0]
	is := ImpairmentSpecs()[1] // correlated: exercises cluster links too
	a := ScenarioMarkdown([]ScenarioCell{runScenarioCell(ss, is, opts)})
	b := ScenarioMarkdown([]ScenarioCell{runScenarioCell(ss, is, opts)})
	if a != b {
		t.Fatalf("cell not deterministic:\n%s\n%s", a, b)
	}
}

func TestScenarioMarkdownShape(t *testing.T) {
	cells := []ScenarioCell{
		{Scenario: "s", Impairment: "i", Rekeys: 1, OK: true},
		{Scenario: "s", Impairment: "j", Err: "boom"},
	}
	md := ScenarioMarkdown(cells)
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[2], "PASS") || !strings.Contains(lines[3], "FAIL: boom") {
		t.Fatalf("verdicts wrong:\n%s", md)
	}
}

func TestScenarioCheck(t *testing.T) {
	if err := ScenarioCheck(Options{Seed: 7}); err != nil {
		t.Fatal(err)
	}
}

// TestStrategiesUnderAdversarialLeave drives the colluding-leaver
// scenario, half the group departing at once, with the full oracle
// active: after every rekeying interval, each surviving member must be
// able to reach the new group key from exactly the encryptions addressed
// to it, and no evicted member may. The key tree carries one marking, the
// paper's, run as the "paper" subtest.
func TestStrategiesUnderAdversarialLeave(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		scn := &workload.AdversarialLeave{Base: 512, Alpha: 0.5, At: 1, Total: 4}
		dr, err := workload.NewDriver(scn, 4, 17)
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.New(dr.Tree(), oracle.Config{MaxMulticastRounds: 2, MaxUnicastWaves: 50})
		if err := o.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		batches := 0
		for {
			st, ok, err := dr.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if st.Res == nil {
				continue
			}
			batches++
			if err := o.ObserveBatch(st.Res, st.Joins, st.Leaves); err != nil {
				t.Fatalf("interval %d: %v", st.Interval, err)
			}
			if err := dr.Tree().CheckInvariant(); err != nil {
				t.Fatalf("interval %d: %v", st.Interval, err)
			}
		}
		if batches == 0 {
			t.Fatal("scenario produced no rekeying intervals")
		}
	})
}
