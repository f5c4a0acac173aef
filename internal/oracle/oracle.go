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
//   - Key consistency: after each batch, every member's client-side
//     view -- reconstructed purely from maxKID and the encryptions
//     addressed to it -- holds exactly the path keys the server's tree
//     says it should, so all survivors converge to one group key.
//
//   - Recovery-bound compliance: a transport run finishes within the
//     configured multicast-round and unicast-wave budgets. Members that
//     heard nothing of a message to ask for it with are counted apart
//     (Unreached): they are a gap of the protocol, not a budget overrun.
//
// The oracle mirrors a workload.Driver: Bootstrap once, then
// ObserveBatch after every Driver step, and CheckRecovery after each
// transport run. Each call reads the key tree it is handed, the server's
// as of that batch.
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

// Oracle watches one evolving key tree and its members' views.
type Oracle struct {
	tree *keytree.Tree // as of the last call
	cfg  Config
	reg  *obs.Registry

	// views is the simulated client state of every current member.
	views map[keytree.Member]*keytree.UserView
	// departed maps every key value any past leaver held to the first
	// leaver that held it. Keys are fresh CSPRNG output, so a value may
	// never legitimately reappear -- records are kept forever.
	departed map[keys.Key]keytree.Member
}

// New returns an oracle with the given recovery bounds.
func New(cfg Config) *Oracle {
	return &Oracle{
		cfg:      cfg,
		views:    make(map[keytree.Member]*keytree.UserView),
		departed: make(map[keys.Key]keytree.Member),
	}
}

// SetObs attaches an observability registry; nil disables counting.
func (o *Oracle) SetObs(reg *obs.Registry) { o.reg = reg }

// Bootstrap registers a view for every member of tree, seeded with the
// full path keys the server hands a member at registration. Call once,
// after the tree's initial population and before the first ObserveBatch.
func (o *Oracle) Bootstrap(tree *keytree.Tree) error {
	o.tree = tree
	for _, m := range o.tree.Members() {
		if err := o.register(m); err != nil {
			return err
		}
		pk, ok := o.tree.PathKeys(m)
		if !ok {
			return fmt.Errorf("oracle: no path keys for member %d", m)
		}
		for id, k := range pk {
			o.views[m].Keys[id] = k
		}
	}
	return nil
}

// register creates the post-registration view (ID + individual key) for
// member m from the server tree's current state.
func (o *Oracle) register(m keytree.Member) error {
	uid, ok := o.tree.UserID(m)
	if !ok {
		return fmt.Errorf("oracle: member %d not in tree", m)
	}
	ik, ok := o.tree.IndividualKey(m)
	if !ok {
		return fmt.Errorf("oracle: member %d has no individual key", m)
	}
	o.views[m] = keytree.NewUserView(o.tree.Degree(), m, uid, ik)
	return nil
}

// Violation is a detected invariant breach.
type Violation struct {
	Invariant string // "forward-secrecy", "key-consistency", "recovery-bound"
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("oracle: %s violated: %s", v.Invariant, v.Detail)
}

// ObserveBatch checks one completed batch: res must be the result of
// applying (joins, leaves) to the tree the oracle last saw, leaving
// tree. It updates every member view from the batch's encryptions, then
// verifies forward secrecy and key consistency. The first violation
// found is returned as a *Violation error.
func (o *Oracle) ObserveBatch(tree *keytree.Tree, res *keytree.BatchResult, joins, leaves []keytree.Member) error {
	o.tree = tree
	o.reg.Inc(obs.COracleChecks)
	if err := o.observeBatch(res, joins, leaves); err != nil {
		o.reg.Inc(obs.COracleViolations)
		return err
	}
	return nil
}

func (o *Oracle) observeBatch(res *keytree.BatchResult, joins, leaves []keytree.Member) error {
	// 1. Retire leavers, confiscating every key value they held.
	for _, m := range leaves {
		v, ok := o.views[m]
		if !ok {
			return fmt.Errorf("oracle: leaver %d has no view", m)
		}
		// The oracle is the test harness's omniscient observer: it
		// deliberately retains every departed key *value* to prove the
		// live tree never reuses one, so its index is the key bytes
		// themselves rather than a key ID.
		for _, k := range v.Keys {
			if _, dup := o.departed[k]; !dup { //rekeylint:ignore forward-secrecy oracle retains departed key values by design
				o.departed[k] = m //rekeylint:ignore forward-secrecy oracle retains departed key values by design
			}
		}
		delete(o.views, m)
	}

	// 2. Register joiners (rejoining handles get brand-new views).
	for _, m := range joins {
		if err := o.register(m); err != nil {
			return err
		}
	}

	// 3. Deliver the batch to every member: exactly the encryptions the
	// assignment would address to it, keyed by its post-batch ID.
	for m, v := range o.views {
		newID, ok := keytree.NewID(v.D, v.ID, res.MaxKID)
		if !ok {
			return &Violation{"key-consistency", fmt.Sprintf("member %d: no post-batch ID for %d (maxKID %d)", m, v.ID, res.MaxKID)}
		}
		if err := v.Apply(res.MaxKID, res.UserNeeds(newID)); err != nil {
			return &Violation{"key-consistency", fmt.Sprintf("member %d: %v", m, err)}
		}
	}

	// 4. Forward secrecy, wrap side: no encryption in this batch may be
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

	// 5. Forward secrecy, tree side: no surviving node -- k-node or
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
	for m := range o.views {
		ik, ok := o.tree.IndividualKey(m)
		if !ok {
			return fmt.Errorf("oracle: member %d lost its individual key", m)
		}
		if dm, bad := o.departed[ik]; bad { //rekeylint:ignore forward-secrecy oracle retains departed key values by design
			return &Violation{"forward-secrecy", fmt.Sprintf("member %d's individual key was held by departed member %d", m, dm)}
		}
	}

	// 6. Key consistency: every member's view contains exactly the path
	// keys the server tree prescribes (stale extra entries are allowed;
	// wrong or missing ones are not), hence a single converged group key.
	group := o.tree.GroupKey()
	for m, v := range o.views {
		want, ok := o.tree.PathKeys(m)
		if !ok {
			return fmt.Errorf("oracle: no path keys for member %d", m)
		}
		for id, wk := range want {
			got, ok := v.Keys[id]
			if !ok {
				return &Violation{"key-consistency", fmt.Sprintf("member %d missing key of node %d", m, id)}
			}
			if !got.Equal(wk) {
				return &Violation{"key-consistency", fmt.Sprintf("member %d holds a wrong key for node %d", m, id)}
			}
		}
		if gk, ok := v.GroupKey(); !ok || !gk.Equal(group) {
			return &Violation{"key-consistency", fmt.Sprintf("member %d did not converge to the group key", m)}
		}
	}
	return nil
}

// Members returns how many member views the oracle currently tracks.
func (o *Oracle) Members() int { return len(o.views) }

// DepartedKeys returns how many confiscated key values are on record.
func (o *Oracle) DepartedKeys() int { return len(o.departed) }

// CheckRecovery verifies one transport run against the configured
// recovery bounds: every member that asked must be served, within the
// multicast-round budget and (if it switched over) the unicast-wave
// budget. Unreached members (Metrics.Unreached) are not a violation.
func (o *Oracle) CheckRecovery(met *vsim.Metrics) error {
	o.reg.Inc(obs.COracleChecks)
	err := o.checkRecovery(met)
	if err != nil {
		o.reg.Inc(obs.COracleViolations)
	}
	return err
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
