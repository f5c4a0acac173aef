package keytree

import (
	"fmt"

	"repro/internal/keys"
)

// UserView is the client-side key state of one group member: its current
// u-node ID and the keys it holds, indexed by node ID. A member never
// sees the tree; it maintains this view purely from the maxKID field and
// the encryptions addressed to it in each rekey message.
type UserView struct {
	Member Member
	// D is the key tree degree, a group constant learned at registration.
	D int
	// ID is the member's current u-node ID.
	ID int
	// Keys holds the member's individual key (at Keys[ID]) and the keys
	// of the k-nodes on its path to the root, as far as it has learned
	// them. Keys[0] is the group key.
	Keys map[int]keys.Key
	// uctx is the wrap context the ingest path re-keys per path edge to
	// unwrap, lazily built on first Apply.
	uctx *keys.WrapContext
}

// NewUserView returns the view a member holds right after registration:
// its assigned u-node ID and individual key, and nothing else (the path
// keys arrive with its first rekey message).
func NewUserView(d int, m Member, id int, individual keys.Key) *UserView {
	return &UserView{
		Member: m,
		D:      d,
		ID:     id,
		Keys:   map[int]keys.Key{id: individual},
	}
}

// GroupKey returns the group key as this member currently knows it,
// and whether the member has learned one yet.
func (u *UserView) GroupKey() (keys.Key, bool) {
	k, ok := u.Keys[0]
	return k, ok
}

// Apply consumes one rekey message's worth of encryptions addressed to
// this member. maxKID is the maximum k-node ID after the batch (field 5
// of every ENC packet); encs may be in any order and may contain
// encryptions for other members, which are ignored.
//
// Apply first rederives the member's ID per Theorem 4.2 (the ID changes
// when the server split the member's node to expand the tree), then
// walks its path bottom-up, unwrapping each parent key with the key
// below it.
func (u *UserView) Apply(maxKID int, encs []Encryption) error {
	newID, ok := NewID(u.D, u.ID, maxKID)
	if !ok {
		return fmt.Errorf("keytree: member %d: no valid ID for old ID %d with maxKID %d (evicted?)", u.Member, u.ID, maxKID)
	}
	if newID != u.ID {
		// The individual key travels with the member; the old position
		// is now an ancestor k-node whose key arrives by encryption.
		u.Keys[newID] = u.Keys[u.ID]
		delete(u.Keys, u.ID)
		u.ID = newID
	}

	for cur := u.ID; cur != 0; {
		parent := ParentID(u.D, cur)
		e, ok := encryptedBy(encs, cur)
		if !ok {
			// No encryption keyed by this node: the parent's key did
			// not change this interval; keep whatever we hold.
			cur = parent
			continue
		}
		holding, ok := u.Keys[cur]
		if !ok {
			return fmt.Errorf("keytree: member %d: needs key of node %d to unwrap node %d's key, but does not hold it", u.Member, cur, parent)
		}
		if u.uctx == nil {
			u.uctx = keys.NewWrapContext(holding)
		} else {
			u.uctx.SetKey(holding)
		}
		parentKey, err := u.uctx.Unwrap(e.Wrapped)
		if err != nil {
			return fmt.Errorf("keytree: member %d: unwrapping key of node %d: %w", u.Member, parent, err)
		}
		u.Keys[parent] = parentKey
		cur = parent
	}
	return nil
}

// encryptedBy finds the encryption keyed by node id; of several, the
// last. A packet holds at most a few dozen encryptions and a path has a
// handful of nodes, so scanning beats building an index per packet.
func encryptedBy(encs []Encryption, id int) (Encryption, bool) {
	for i := len(encs) - 1; i >= 0; i-- {
		if int(encs[i].ID) == id {
			return encs[i], true
		}
	}
	return Encryption{}, false
}
