// Package oracle checks protocol invariants over a live rekeying run:
//
//   - Forward secrecy: no member who has left can unwrap any key
//     generated after its departure. Checked set-theoretically -- every
//     key value a leaver ever held is recorded, and no later wrap may
//     use such a value, nor may any surviving node hold one. (A
//     crypto-trial check would be defeated by the 2-byte truncated
//     wrap tag: with ~2^-16 false-positive unwraps, "the attacker
//     decrypted something" is noise at scale; key-value identity is
//     exact.)
//
//   - Key consistency: after each transport run, every real member --
//     the rekey.Member the datagrams went to -- holds the path keys the
//     server's tree says it should, so all survivors converge to one
//     group key.
//
//   - Recovery-bound compliance: a transport run finishes within the
//     configured multicast-round and unicast-wave budgets. Members that
//     heard nothing of a message to ask for it with are counted apart
//     (Unreached): they are a gap of the protocol, not a budget overrun.
//
// The oracle mirrors a workload.Driver: Bootstrap once with the group's
// first members, then ObserveBatch after every Driver step and CheckRun
// after the transport run of its message. Each batch reads the key tree
// it is handed, the server's as of that batch.
package oracle

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/vsim"
)

// Config bounds the recovery-compliance check.
type Config struct {
	// MaxMulticastRounds is the largest number of multicast NACK rounds a
	// run may take (the protocol's switchover threshold).
	MaxMulticastRounds int
	// MaxUnicastWaves is the largest number of unicast waves a run may
	// take after switchover.
	MaxUnicastWaves int
}

// Oracle watches one evolving key tree and its real members.
type Oracle struct {
	tree *keytree.Tree // as of the last call
	cfg  Config
	reg  *obs.Registry

	// members holds the real members as of the last check. A leaver
	// receives nothing after it, so what its member holds there is what
	// it held when it left.
	members map[keytree.Member]vsim.Member
	// departed maps every key value any past leaver held to the first
	// leaver that held it. Keys are fresh CSPRNG output, so a value may
	// never legitimately reappear -- records are kept forever.
	departed map[keys.Key]keytree.Member
}

// New returns an oracle with the given recovery bounds.
func New(cfg Config) *Oracle {
	return &Oracle{cfg: cfg, departed: make(map[keys.Key]keytree.Member)}
}

// SetObs attaches an observability registry; nil disables counting.
func (o *Oracle) SetObs(reg *obs.Registry) { o.reg = reg }

// Bootstrap checks the group's first members, keyed out of band at
// registration, against tree: members in tree.Members() order, as
// Session.Run takes them. Call once, before the first ObserveBatch.
func (o *Oracle) Bootstrap(tree *keytree.Tree, members []vsim.Member) error {
	o.tree = tree
	return o.checkMembers(members)
}

// Violation is a detected invariant breach.
type Violation struct {
	Invariant string // "forward-secrecy", "key-consistency", "recovery-bound"
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("oracle: %s violated: %s", v.Invariant, v.Detail)
}

// ObserveBatch checks one completed batch: res must be the result of a
// batch with leaves that turned the tree the oracle last saw into tree.
// It confiscates what the leavers held, then verifies forward secrecy.
// The first violation found is returned as a *Violation error.
func (o *Oracle) ObserveBatch(tree *keytree.Tree, res *keytree.BatchResult, leaves []keytree.Member) error {
	o.tree = tree
	o.reg.Inc(obs.COracleChecks)
	if err := o.observeBatch(res, leaves); err != nil {
		o.reg.Inc(obs.COracleViolations)
		return err
	}
	return nil
}

func (o *Oracle) observeBatch(res *keytree.BatchResult, leaves []keytree.Member) error {
	// 1. Retire leavers, confiscating every key value their members held.
	for _, m := range leaves {
		mem, ok := o.members[m]
		if !ok {
			return fmt.Errorf("oracle: leaver %d was never checked", m)
		}
		// The oracle is the test harness's omniscient observer: it
		// deliberately retains every departed key *value* to prove the
		// live tree never reuses one, so its index is the key bytes
		// themselves rather than a key ID.
		for _, k := range mem.Keys() {
			if _, dup := o.departed[k]; !dup { //rekeylint:ignore forward-secrecy oracle retains departed key values by design
				o.departed[k] = m //rekeylint:ignore forward-secrecy oracle retains departed key values by design
			}
		}
		delete(o.members, m)
	}

	// 2. Forward secrecy, wrap side: no encryption in this batch may be
	// wrapped under a key a departed member holds. The wrapping key of
	// an encryption is the current key of the child node it is keyed by.
	for i := range res.Encryptions {
		id := int(res.Encryptions[i].ID)
		k, _, ok := o.tree.NodeKey(id)
		if !ok {
			return &Violation{"forward-secrecy", fmt.Sprintf("encryption keyed by node %d which holds no key", id)}
		}
		if m, bad := o.departed[k]; bad { //rekeylint:ignore forward-secrecy oracle retains departed key values by design
			return &Violation{"forward-secrecy", fmt.Sprintf("encryption keyed by node %d is wrapped under a key departed member %d holds", id, m)}
		}
	}

	// 3. Forward secrecy, tree side: no surviving node -- k-node or
	// member individual key -- may hold a key a departed member held.
	var fsErr error
	o.tree.ForEachKNode(func(id int, k keys.Key) {
		if m, bad := o.departed[k]; bad && fsErr == nil { //rekeylint:ignore forward-secrecy oracle retains departed key values by design
			fsErr = &Violation{"forward-secrecy", fmt.Sprintf("k-node %d holds a key departed member %d held", id, m)}
		}
	})
	if fsErr != nil {
		return fsErr
	}
	for _, m := range o.tree.Members() {
		ik, ok := o.tree.IndividualKey(m)
		if !ok {
			return fmt.Errorf("oracle: member %d lost its individual key", m)
		}
		if dm, bad := o.departed[ik]; bad { //rekeylint:ignore forward-secrecy oracle retains departed key values by design
			return &Violation{"forward-secrecy", fmt.Sprintf("member %d's individual key was held by departed member %d", m, dm)}
		}
	}
	return nil
}

// DepartedKeys returns how many confiscated key values are on record.
func (o *Oracle) DepartedKeys() int { return len(o.departed) }

// CheckRun verifies the transport run of the batch ObserveBatch last
// saw, whose metrics are met and whose members, in the order
// Session.Run took them, are members. Every member that asked must be
// served, within the multicast-round budget and (if it switched over)
// the unicast-wave budget; unreached members (Metrics.Unreached) are
// not a violation, since the run keys them out of band. Then every
// member must hold its path keys and the group key.
func (o *Oracle) CheckRun(met *vsim.Metrics, members []vsim.Member) error {
	o.reg.Inc(obs.COracleChecks)
	err := o.checkRecovery(met)
	if err == nil {
		err = o.checkMembers(members)
	}
	if err != nil {
		o.reg.Inc(obs.COracleViolations)
	}
	return err
}

// checkMembers requires member i of members, the tree's i-th member in
// node-ID order, to hold the key of every node on its path as the tree
// has it (stale extra keys are allowed; wrong or missing ones are not),
// the group key among them, and records the members for the leaves to
// come.
func (o *Oracle) checkMembers(members []vsim.Member) error {
	ids := o.tree.Members()
	if len(members) != len(ids) {
		return fmt.Errorf("oracle: %d members for a %d-member tree", len(members), len(ids))
	}
	group := o.tree.GroupKey()
	o.members = make(map[keytree.Member]vsim.Member, len(ids))
	for i, m := range ids {
		o.members[m] = members[i]
		want, ok := o.tree.PathKeys(m)
		if !ok {
			return fmt.Errorf("oracle: no path keys for member %d", m)
		}
		held := members[i].Keys()
		for id, wk := range want {
			got, ok := held[id]
			if !ok {
				return &Violation{"key-consistency", fmt.Sprintf("member %d missing key of node %d", m, id)}
			}
			if !got.Equal(wk) {
				return &Violation{"key-consistency", fmt.Sprintf("member %d holds a wrong key for node %d", m, id)}
			}
		}
		if gk, ok := held[0]; !ok || !gk.Equal(group) {
			return &Violation{"key-consistency", fmt.Sprintf("member %d did not converge to the group key", m)}
		}
	}
	return nil
}

func (o *Oracle) checkRecovery(met *vsim.Metrics) error {
	served := 0
	for _, c := range met.UserRoundHist {
		served += c
	}
	// Not done, and not only because of the unreached: someone who asked
	// was still waiting when the budget ran out.
	if !met.AllDone && (met.Unreached == 0 || served+met.Unreached < met.NeededUsers) {
		return &Violation{"recovery-bound", "run ended with users still missing the message"}
	}
	if met.MulticastRounds > o.cfg.MaxMulticastRounds {
		return &Violation{"recovery-bound", fmt.Sprintf("%d multicast rounds > budget %d", met.MulticastRounds, o.cfg.MaxMulticastRounds)}
	}
	if met.UnicastWaves > o.cfg.MaxUnicastWaves {
		return &Violation{"recovery-bound", fmt.Sprintf("%d unicast waves > budget %d", met.UnicastWaves, o.cfg.MaxUnicastWaves)}
	}
	return nil
}
