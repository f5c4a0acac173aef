package oracle

import (
	"errors"
	"slices"
	"testing"

	rekey "repro"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/vsim"
	"repro/internal/workload"
)

// newRun starts a driver for the scenario under a bootstrapped oracle,
// and a session over the paper's lossy star to deliver its messages.
func newRun(t *testing.T, scn workload.Scenario, d int, seed uint64) (*workload.Driver, *Oracle, *vsim.Session) {
	t.Helper()
	dr, err := workload.NewDriver(scn, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: vsim.WaveBudget})
	if err := o.Bootstrap(dr.Tree(), dr.Members()); err != nil {
		t.Fatal(err)
	}
	star, err := netsim.NewStar(netsim.DefaultStar(2048, seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := vsim.Config{Tuning: rekey.DefaultTuning()}
	cfg.AdaptiveRho = true
	sess, err := vsim.NewSession(cfg, star, seed)
	if err != nil {
		t.Fatal(err)
	}
	return dr, o, sess
}

// observe checks st's batch, delivers its message to the group's real
// members and checks the run.
func observe(t *testing.T, dr *workload.Driver, o *Oracle, sess *vsim.Session, st *workload.Step) {
	t.Helper()
	if err := o.ObserveBatch(dr.Tree(), st.Msg.Result, st.Leaves); err != nil {
		t.Fatalf("interval %d: %v", st.Interval, err)
	}
	met, err := sess.Run(st.Msg, st.Members)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CheckRun(met, st.Members); err != nil {
		t.Fatalf("interval %d: %v", st.Interval, err)
	}
}

// driveScenario runs a scenario under the oracle and returns it.
func driveScenario(t *testing.T, scn workload.Scenario, seed uint64) *Oracle {
	t.Helper()
	dr, o, sess := newRun(t, scn, 4, seed)
	for {
		st, ok, err := dr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if st.Msg != nil {
			observe(t, dr, o, sess, st)
		}
	}
	return o
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
			driveScenario(t, tc.scn, 33)
		})
	}
}

func TestOracleDepartedKeysAccumulate(t *testing.T) {
	o := driveScenario(t, &workload.AdversarialLeave{Base: 64, Alpha: 0.5, At: 0, Total: 1}, 5)
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
	dr, o, sess := newRun(t, &workload.Diurnal{Base: 64, Mean: 12, Amplitude: 0.9, Period: 4, Total: 8}, 3, 17)
	// attacker key sets: all key values held at leave time, per leaver.
	attackers := make(map[keytree.Member]map[keys.Key]bool)
	for {
		ids, members := dr.Tree().Members(), dr.Members()
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
		// A leaver holds what its real member held before the batch.
		for _, m := range st.Leaves {
			held := make(map[keys.Key]bool)
			for _, k := range members[slices.Index(ids, m)].Keys() {
				held[k] = true
			}
			attackers[m] = held
		}
		observe(t, dr, o, sess, st)
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
	if err := o.Bootstrap(dr.Tree(), dr.Members()); err != nil {
		t.Fatal(err)
	}
	// Server processes a join-only batch; oracle is told member 0 left.
	// Member 0's path keys were never rotated.
	tree := dr.Tree()
	res, err := tree.ProcessBatch([]keytree.Member{1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = o.ObserveBatch(tree, res, []keytree.Member{0})
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != "forward-secrecy" {
		t.Fatalf("want forward-secrecy violation, got %v", err)
	}
}

// withheld is a member from which one interval's datagrams are kept: it
// drops every datagram, the out-of-band USR one too, yet reports each
// as the one that keyed it, so the session neither serves it again nor
// keys it out of band.
type withheld struct{ vsim.Member }

func (withheld) Ingest([]byte) (rekey.IngestResult, error) {
	return rekey.IngestResult{Done: true}, nil
}

// TestOracleDetectsCorruptedView injects a key-consistency fault: one
// surviving member never receives an interval's message, so it keeps
// the keys the batch replaced. The run looks clean; the member does
// not.
func TestOracleDetectsCorruptedView(t *testing.T) {
	dr, o, sess := newRun(t, &workload.Diurnal{Base: 64, Mean: 8, Amplitude: 0.5, Period: 4, Total: 2}, 4, 21)
	st, ok, err := dr.Step()
	if err != nil || !ok || st.Msg == nil {
		t.Fatalf("step: ok=%v msg=%v err=%v", ok, st.Msg, err)
	}
	if err := o.ObserveBatch(dr.Tree(), st.Msg.Result, st.Leaves); err != nil {
		t.Fatal(err)
	}
	// The victim survives the batch: a joiner has nothing to lose yet.
	for i, m := range dr.Tree().Members() {
		if !slices.Contains(st.Joins, m) {
			st.Members[i] = withheld{st.Members[i]}
			break
		}
	}
	met, err := sess.Run(st.Msg, st.Members)
	if err != nil {
		t.Fatal(err)
	}
	err = o.CheckRun(met, st.Members)
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != "key-consistency" {
		t.Fatalf("want key-consistency violation, got %v", err)
	}
}

func TestCheckRecovery(t *testing.T) {
	o := New(Config{MaxMulticastRounds: 2, MaxUnicastWaves: 5})
	reg := obs.New()
	o.SetObs(reg)
	// An empty group: every run's members are trivially keyed.
	if err := o.Bootstrap(keytree.New(4, nil), nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		met  vsim.Metrics
		fail bool
	}{
		{vsim.Metrics{Outcome: protocol.Outcome{Rounds: 2, UnicastWaves: 0}, AllDone: true}, false},
		{vsim.Metrics{Outcome: protocol.Outcome{Rounds: 2, UnicastWaves: 5}, AllDone: true}, false},
		{vsim.Metrics{Outcome: protocol.Outcome{Rounds: 1}, AllDone: false}, true},
		{vsim.Metrics{Outcome: protocol.Outcome{Rounds: 3}, AllDone: true}, true},
		{vsim.Metrics{Outcome: protocol.Outcome{Rounds: 2, UnicastWaves: 6}, AllDone: true}, true},
	}
	fails := 0
	for i, tc := range cases {
		err := o.CheckRun(&tc.met, nil)
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

// TestOracleObsCounters: one batch and its run are two checks.
func TestOracleObsCounters(t *testing.T) {
	dr, o, sess := newRun(t, &workload.AdversarialLeave{Base: 32, Alpha: 0.25, At: 0, Total: 1}, 4, 2)
	reg := obs.New()
	o.SetObs(reg)
	st, _, err := dr.Step()
	if err != nil {
		t.Fatal(err)
	}
	observe(t, dr, o, sess, st)
	if got := reg.CounterValue(obs.COracleChecks); got != 2 {
		t.Errorf("oracle_checks = %d, want 2", got)
	}
	if got := reg.CounterValue(obs.COracleViolations); got != 0 {
		t.Errorf("oracle_violations = %d, want 0", got)
	}
}
