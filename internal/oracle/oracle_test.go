package oracle

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/vsim"
	"repro/internal/workload"
)

// driveScenario runs a scenario under the oracle and returns it.
func driveScenario(t *testing.T, scn workload.Scenario, seed uint64) (*workload.Driver, *Oracle) {
	t.Helper()
	dr, err := workload.NewDriver(scn, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 50})
	if err := o.Bootstrap(dr.Tree()); err != nil {
		t.Fatal(err)
	}
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if st.Msg == nil {
			continue
		}
		if err := o.ObserveBatch(dr.Tree(), st.Msg.Result, st.Joins, st.Leaves); err != nil {
			t.Fatalf("interval %d: %v", st.Interval, err)
		}
	}
	return dr, o
}

func TestOracleAcceptsAllScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  workload.Scenario
	}{
		{"flash-crowd", &workload.FlashCrowd{Base: 128, Spike: 1024, SpikeAt: 1, Total: 4, Background: 3}},
		{"diurnal", &workload.Diurnal{Base: 128, Mean: 16, Amplitude: 0.8, Period: 4, Total: 8}},
		{"partition-rejoin", &workload.PartitionRejoin{Base: 128, Fraction: 0.25, PartitionAt: 1, RejoinAt: 3, Total: 5}},
		{"adversarial-leave", &workload.AdversarialLeave{Base: 128, Alpha: 0.25, At: 1, Total: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dr, o := driveScenario(t, tc.scn, 33)
			if o.Members() != len(dr.Tree().Members()) {
				t.Fatalf("oracle tracks %d members, tree has %d", o.Members(), len(dr.Tree().Members()))
			}
		})
	}
}

func TestOracleDepartedKeysAccumulate(t *testing.T) {
	_, o := driveScenario(t, &workload.AdversarialLeave{Base: 64, Alpha: 0.5, At: 0, Total: 1}, 5)
	if o.DepartedKeys() == 0 {
		t.Fatal("mass leave recorded no departed keys")
	}
}

// TestOracleDifferentialAttacker validates the set-based forward-secrecy
// check against a real attacker at small scale: a departed member
// attempts transitive closure over every post-leave encryption, counting
// a key as "learned" only when it matches the tree's true key for that
// node (exact, unlike trial decryption with 2-byte tags). The attacker
// must learn nothing the oracle did not flag -- and since the oracle
// passed, nothing at all.
func TestOracleDifferentialAttacker(t *testing.T) {
	dr, err := workload.NewDriver(&workload.Diurnal{Base: 64, Mean: 12, Amplitude: 0.9, Period: 4, Total: 8}, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 50})
	if err := o.Bootstrap(dr.Tree()); err != nil {
		t.Fatal(err)
	}
	// attacker key sets: all key values held at leave time, per leaver.
	attackers := make(map[keytree.Member]map[keys.Key]bool)
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if st.Msg == nil {
			continue
		}
		// Freeze leavers' holdings before the oracle retires their views.
		for _, m := range st.Leaves {
			held := make(map[keys.Key]bool)
			for _, k := range o.views[m].Keys {
				held[k] = true
			}
			attackers[m] = held
		}
		if err := o.ObserveBatch(dr.Tree(), st.Msg.Result, st.Joins, st.Leaves); err != nil {
			t.Fatal(err)
		}
		// Every attacker tries transitive closure over this batch's
		// encryptions: it can unwrap {parent}_child iff it holds the true
		// current key of the child node.
		for m, held := range attackers {
			for changed := true; changed; {
				changed = false
				for i := range st.Msg.Result.Encryptions {
					child := int(st.Msg.Result.Encryptions[i].ID)
					ck, _, ok := dr.Tree().NodeKey(child)
					if !ok || !held[ck] {
						continue
					}
					parent := keytree.ParentID(dr.Tree().Degree(), child)
					pk, _, ok := dr.Tree().NodeKey(parent)
					if ok && !held[pk] {
						held[pk] = true
						changed = true
					}
				}
			}
			// The attacker may hold no current k-node key, in particular
			// not the group key.
			gotGroup := held[dr.Tree().GroupKey()]
			if gotGroup {
				t.Fatalf("departed member %d recovered the group key", m)
			}
			dr.Tree().ForEachKNode(func(id int, k keys.Key) {
				if held[k] {
					t.Errorf("departed member %d holds current key of k-node %d", m, id)
				}
			})
		}
	}
	if len(attackers) == 0 {
		t.Fatal("scenario produced no leavers; differential test vacuous")
	}
}

// TestOracleDetectsUnrotatedKeys injects a forward-secrecy bug: the
// oracle is told a member left, but the server never processed that
// leave, so the tree still holds keys the "leaver" knows.
func TestOracleDetectsUnrotatedKeys(t *testing.T) {
	dr, err := workload.NewDriver(&workload.FlashCrowd{Base: 64, Spike: 0, SpikeAt: -1, Total: 1, Background: 0}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 50})
	if err := o.Bootstrap(dr.Tree()); err != nil {
		t.Fatal(err)
	}
	// Server processes a join-only batch; oracle is told member 0 also
	// left. Member 0's path keys were never rotated.
	tree := dr.Tree()
	res, err := tree.ProcessBatch([]keytree.Member{1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = o.ObserveBatch(tree, res, []keytree.Member{1000}, []keytree.Member{0})
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != "forward-secrecy" {
		t.Fatalf("want forward-secrecy violation, got %v", err)
	}
}

// TestOracleDetectsCorruptedView injects a key-consistency bug: one
// member's client state is corrupted so it can no longer unwrap its
// path, or silently diverges.
func TestOracleDetectsCorruptedView(t *testing.T) {
	dr, err := workload.NewDriver(&workload.Diurnal{Base: 64, Mean: 8, Amplitude: 0.5, Period: 4, Total: 2}, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 50})
	if err := o.Bootstrap(dr.Tree()); err != nil {
		t.Fatal(err)
	}
	st, ok, err := dr.Step()
	if err != nil || !ok || st.Msg == nil {
		t.Fatalf("step: ok=%v msg=%v err=%v", ok, st.Msg, err)
	}
	// Corrupt a member that survives the batch (one that leaves in it is
	// dropped unchecked). Consistency must catch the divergence even if
	// this batch leaves node 0's key deliverable (it is rewrapped every
	// batch, so Apply will fix it -- corrupt a deeper path key instead:
	// flip every key the view holds).
	var victim *keytree.UserView
	for m, v := range o.views {
		if !slices.Contains(st.Leaves, m) {
			victim = v
			break
		}
	}
	for id := range victim.Keys {
		k := victim.Keys[id]
		k[0] ^= 0xFF
		victim.Keys[id] = k
	}
	err = o.ObserveBatch(dr.Tree(), st.Msg.Result, st.Joins, st.Leaves)
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != "key-consistency" {
		t.Fatalf("want key-consistency violation, got %v", err)
	}
}

func TestCheckRecovery(t *testing.T) {
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 5})
	reg := obs.New()
	o.SetObs(reg)
	cases := []struct {
		met  vsim.Metrics
		fail bool
	}{
		{vsim.Metrics{AllDone: true, MulticastRounds: 2, UnicastWaves: 0}, false},
		{vsim.Metrics{AllDone: true, MulticastRounds: 2, UnicastWaves: 5}, false},
		{vsim.Metrics{AllDone: false, MulticastRounds: 1}, true},
		{vsim.Metrics{AllDone: true, MulticastRounds: 3}, true},
		{vsim.Metrics{AllDone: true, MulticastRounds: 2, UnicastWaves: 6}, true},
	}
	fails := 0
	for i, tc := range cases {
		err := o.CheckRecovery(&tc.met)
		if (err != nil) != tc.fail {
			t.Errorf("case %d: err=%v want fail=%v", i, err, tc.fail)
		}
		if err != nil {
			fails++
			var v *Violation
			if !errors.As(err, &v) || v.Invariant != "recovery-bound" {
				t.Errorf("case %d: wrong violation %v", i, err)
			}
		}
	}
	if got := reg.CounterValue(obs.COracleChecks); got != int64(len(cases)) {
		t.Errorf("oracle_checks = %d, want %d", got, len(cases))
	}
	if got := reg.CounterValue(obs.COracleViolations); got != int64(fails) {
		t.Errorf("oracle_violations = %d, want %d", got, fails)
	}
}

func TestOracleObsCounters(t *testing.T) {
	dr, err := workload.NewDriver(&workload.AdversarialLeave{Base: 32, Alpha: 0.25, At: 0, Total: 1}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 50})
	reg := obs.New()
	o.SetObs(reg)
	if err := o.Bootstrap(dr.Tree()); err != nil {
		t.Fatal(err)
	}
	st, _, err := dr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.ObserveBatch(dr.Tree(), st.Msg.Result, st.Joins, st.Leaves); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(obs.COracleChecks); got != 1 {
		t.Errorf("oracle_checks = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.COracleViolations); got != 0 {
		t.Errorf("oracle_violations = %d, want 0", got)
	}
}
