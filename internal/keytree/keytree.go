// Package keytree implements the logical key hierarchy (LKH) used by the
// group key management component: a rooted key tree of degree d whose
// root holds the group key, whose internal k-nodes hold auxiliary keys,
// and whose u-nodes hold users' individual keys.
//
// Node identification follows the paper's scheme exactly: the tree is
// conceptually expanded to a full, balanced tree by adding null n-nodes,
// and nodes are numbered top-down, left-to-right starting from 0, so the
// children of node m are d*m+1 .. d*m+d and the parent of m is
// floor((m-1)/d). The package maintains the Lemma 4.1 invariant (every
// k-node ID is smaller than every u-node ID) and provides the Theorem 4.2
// rederivation by which a user computes its post-batch ID from its old ID
// and the maximum current k-node ID alone.
//
// ProcessBatch applies J join and L leave requests collected over a
// rekey interval, relabels the rekey subtree
// (Unchanged/Join/Leave/Replace), generates new keys for every updated
// k-node, and emits one encryption {parentKey}_childKey per
// rekey-subtree edge, bottom-up -- the workload handed to rekey
// transport. Placement and marking are the paper's Appendix B
// algorithm, the one behind Lemma 4.1 and Theorem 4.2 (see mark).
package keytree

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/keys"
	"repro/internal/obs"
)

// NodeKind distinguishes the three node types of the expanded key tree.
type NodeKind uint8

// Node kinds.
const (
	NNode NodeKind = iota // null: padding in the expanded tree
	KNode                 // key node: group key or auxiliary key
	UNode                 // user node: an individual key
)

func (k NodeKind) String() string {
	switch k {
	case NNode:
		return "n-node"
	case KNode:
		return "k-node"
	case UNode:
		return "u-node"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// Label is a rekey-subtree marking.
type Label uint8

// Rekey subtree labels, per the marking algorithm.
const (
	Unchanged Label = iota
	Join
	Leave
	Replace
)

func (l Label) String() string {
	switch l {
	case Unchanged:
		return "Unchanged"
	case Join:
		return "Join"
	case Leave:
		return "Leave"
	case Replace:
		return "Replace"
	}
	return fmt.Sprintf("Label(%d)", uint8(l))
}

// Member is an application-level member handle, stable across the
// member's lifetime in the group (node IDs are not: they can change when
// the tree is restructured).
type Member int64

type node struct {
	key    keys.Key
	member Member
	kind   NodeKind
	// label is the last batch's marking. Outside that batch's touched
	// positions it is Unchanged, so a batch resets only those.
	label Label
}

// Tree is the key server's key tree. It is not safe for concurrent
// mutation; the key server serialises batches. ProcessBatch fans the
// wrap-emission phase out over GOMAXPROCS goroutines, but the
// caller still sees one synchronous call.
type Tree struct {
	d      int
	height int // depth of the deepest level; root is level 0
	nodes  []node
	maxK   int            // maximum k-node ID, -1 when there is none
	loc    map[Member]int // member -> u-node ID
	gen    *keys.Generator
	// users marks the u-nodes, by ID: the user IDs and members are read
	// off it a word at a time. Every write of a whole node goes through
	// setNode, which keeps it in step.
	users bitset
	// touched lists the positions the last batch changed and their
	// ancestors, deepest level first and IDs ascending within a level:
	// the only nodes whose label may differ from Unchanged.
	touched []int
	scratch batchScratch
	// reg receives pipeline metrics (keys generated, wraps, wrap ns);
	// nil costs only a nil check.
	reg *obs.Registry
}

// Option configures a Tree at construction time.
type Option func(*Tree)

// WithObs attaches a metrics registry (nil detaches); a nil registry
// costs only a nil check.
func WithObs(r *obs.Registry) Option { return func(t *Tree) { t.reg = r } }

// New returns an empty key tree of the given degree (d >= 2).
func New(d int, gen *keys.Generator, opts ...Option) *Tree {
	if d < 2 {
		panic(fmt.Sprintf("keytree: degree %d < 2", d))
	}
	if gen == nil {
		gen = keys.NewGenerator()
	}
	t := &Tree{
		d:      d,
		height: 1,
		nodes:  make([]node, fullSize(d, 1)),
		maxK:   -1,
		loc:    make(map[Member]int),
		gen:    gen,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// fullSize returns the node count of a full, balanced tree of the given
// degree and height: (d^(h+1)-1)/(d-1).
func fullSize(d, h int) int {
	size := 1
	level := 1
	for i := 0; i < h; i++ {
		level *= d
		size += level
	}
	return size
}

// Degree returns the key tree degree d.
func (t *Tree) Degree() int { return t.d }

// Height returns the depth of the deepest tree level (root is level 0).
func (t *Tree) Height() int { return t.height }

// N returns the current number of users in the group.
func (t *Tree) N() int { return len(t.loc) }

// Parent returns the parent ID of node m, or -1 for the root.
func (t *Tree) Parent(m int) int {
	if m == 0 {
		return -1
	}
	return (m - 1) / t.d
}

// ParentID computes the parent of node m in a tree of degree d without a
// Tree instance; it is the relationship users exploit client-side.
func ParentID(d, m int) int {
	if m == 0 {
		return -1
	}
	return (m - 1) / d
}

// MaxKID returns the maximum ID among current k-nodes, or -1 if the tree
// holds no k-nodes. It is broadcast in every ENC packet so that users can
// rederive their IDs (Theorem 4.2).
func (t *Tree) MaxKID() int { return t.maxK }

// GroupKey returns the current group key (the key at the root).
// It returns the zero key if the group is empty.
func (t *Tree) GroupKey() keys.Key {
	if t.nodes[0].kind != KNode {
		return keys.Key{}
	}
	return t.nodes[0].key
}

// UserID returns the u-node ID currently assigned to member m.
func (t *Tree) UserID(m Member) (int, bool) {
	id, ok := t.loc[m]
	return id, ok
}

// IndividualKey returns member m's individual key.
func (t *Tree) IndividualKey(m Member) (keys.Key, bool) {
	id, ok := t.loc[m]
	if !ok {
		return keys.Key{}, false
	}
	return t.nodes[id].key, true
}

// Members returns all current members, sorted by u-node ID: the
// occupant of BatchResult.UserIDs[i] is Members()[i].
func (t *Tree) Members() []Member {
	ms := make([]Member, 0, len(t.loc))
	lo, end := t.userWindow()
	for id := t.users.next(lo, end); id < end; id = t.users.next(id+1, end) {
		ms = append(ms, t.nodes[id].member)
	}
	return ms
}

// userWindow returns the u-region window [nk+1, d*nk+d+1), clipped to
// the node array, where nk is the maximum k-node ID: every u-node lies
// in it, above nk by Lemma 4.1 and at most d*nk+d as a k-node's child.
func (t *Tree) userWindow() (lo, end int) {
	return t.maxK + 1, min(t.d*t.maxK+t.d+1, len(t.nodes))
}

// setNode writes node id whole and keeps the u-node bitset in step.
func (t *Tree) setNode(id int, n node) {
	t.nodes[id] = n
	if n.kind == UNode {
		t.users.set(id)
	} else {
		t.users.clear(id)
	}
}

// PathKeys returns the keys a member should hold after a successful
// rekey: its individual key plus the keys of every k-node on its path to
// the root, keyed by node ID. Tests compare user state against it.
func (t *Tree) PathKeys(m Member) (map[int]keys.Key, bool) {
	id, ok := t.loc[m]
	if !ok {
		return nil, false
	}
	out := map[int]keys.Key{id: t.nodes[id].key}
	for p := t.Parent(id); p >= 0; p = t.Parent(p) {
		if t.nodes[p].kind == KNode {
			out[p] = t.nodes[p].key
		}
	}
	return out, true
}

// NodeKey returns the key held at node id and the node's kind. ok is
// false for n-nodes and out-of-range IDs (which hold no key). Invariant
// oracles use it to resolve an Encryption's wrapping (child) key.
func (t *Tree) NodeKey(id int) (keys.Key, NodeKind, bool) {
	if id < 0 || id >= len(t.nodes) {
		return keys.Key{}, NNode, false
	}
	n := &t.nodes[id]
	if n.kind == NNode {
		return keys.Key{}, NNode, false
	}
	return n.key, n.kind, true
}

// ForEachKNode calls fn for every current k-node in ascending ID order.
// Forward-secrecy oracles sweep the live auxiliary keys through it
// without materialising a map.
func (t *Tree) ForEachKNode(fn func(id int, k keys.Key)) {
	for id := range t.nodes {
		if t.nodes[id].kind == KNode {
			fn(id, t.nodes[id].key)
		}
	}
}

// growTo extends the allocated tree so that id is a valid index,
// increasing the height as necessary. New positions are n-nodes.
func (t *Tree) growTo(id int) {
	for fullSize(t.d, t.height) <= id {
		t.height++
	}
	want := fullSize(t.d, t.height)
	if want > len(t.nodes) {
		grown := make([]node, want)
		copy(grown, t.nodes)
		t.nodes = grown
	}
}

// CheckInvariant verifies Lemma 4.1 (every k-node ID below every u-node
// ID), structural sanity, the maintained MaxKID, and that only the last
// batch's touched positions carry a label; tests call it after every
// mutation.
func (t *Tree) CheckInvariant() error {
	maxK, minU := -1, math.MaxInt
	users := 0
	// hasUser[id]: does the subtree rooted at id contain a u-node?
	// Computed bottom-up in one pass (children have larger IDs).
	hasUser := make([]bool, len(t.nodes))
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if t.nodes[id].kind == UNode {
			hasUser[id] = true
			continue
		}
		first := t.d*id + 1
		for c := first; c < first+t.d && c < len(t.nodes); c++ {
			if hasUser[c] {
				hasUser[id] = true
				break
			}
		}
	}
	touched := make([]bool, len(t.nodes))
	for _, id := range t.touched {
		touched[id] = true
	}
	if extra := t.users.next(len(t.nodes), math.MaxInt); extra < len(t.users.w)<<6 {
		return fmt.Errorf("keytree: u-node bitset marks %d, past the node array", extra)
	}
	for id := range t.nodes {
		n := &t.nodes[id]
		if t.users.get(id) != (n.kind == UNode) {
			return fmt.Errorf("keytree: u-node bitset says %v at %v node %d", t.users.get(id), n.kind, id)
		}
		if n.label != Unchanged && !touched[id] {
			return fmt.Errorf("keytree: node %d labelled %v outside the last batch", id, n.label)
		}
		switch n.kind {
		case KNode:
			if id > maxK {
				maxK = id
			}
			if !hasUser[id] {
				return fmt.Errorf("keytree: k-node %d has no user below", id)
			}
			if n.key.Zero() {
				return fmt.Errorf("keytree: k-node %d has no key", id)
			}
		case UNode:
			users++
			if id < minU {
				minU = id
			}
			if got, ok := t.loc[n.member]; !ok || got != id {
				return fmt.Errorf("keytree: loc map out of sync for member %d at node %d", n.member, id)
			}
			if id != 0 && t.nodes[t.Parent(id)].kind != KNode {
				return fmt.Errorf("keytree: u-node %d has non-k parent", id)
			}
		case NNode:
			if hasUser[id] {
				return fmt.Errorf("keytree: n-node %d has a user below", id)
			}
		}
	}
	if users != len(t.loc) {
		return fmt.Errorf("keytree: %d u-nodes but %d loc entries", users, len(t.loc))
	}
	if maxK != t.maxK {
		return fmt.Errorf("keytree: MaxKID %d, but the highest k-node is %d", t.maxK, maxK)
	}
	if maxK >= 0 && minU < math.MaxInt && maxK >= minU {
		return fmt.Errorf("keytree: Lemma 4.1 violated: maxKID=%d >= minUID=%d", maxK, minU)
	}
	return nil
}

// Clone returns a deep copy of the tree sharing the key generator and
// metrics registry. The experiment harness clones a populated tree so
// that many trials can apply independent batches to identical starting
// states. Like a restored tree, the copy carries no batch's labels.
func (t *Tree) Clone() *Tree {
	n := &Tree{d: t.d, height: t.height, maxK: t.maxK, gen: t.gen, reg: t.reg}
	n.nodes = append([]node(nil), t.nodes...)
	n.users.w = append([]uint64(nil), t.users.w...)
	for _, id := range t.touched {
		n.nodes[id].label = Unchanged
	}
	n.loc = make(map[Member]int, len(t.loc))
	for m, id := range t.loc {
		n.loc[m] = id
	}
	return n
}

// Encryption is one {parentKey}_childKey entry of a rekey message. Its ID
// is the encrypting (child) node's ID; the encrypted key's node is the
// child's parent, recoverable from the ID alone.
type Encryption struct {
	ID      uint32
	Wrapped [keys.WrappedSize]byte
}

// levelSeg locates one tree level's run of the Encryptions array, which
// holds the level's encryptions with IDs ascending; levels run deepest
// first. Within a level an encryption's offset is its rank among the
// emitting nodes, so with the emitted bitset a lookup is one popcount --
// nothing per encryption to build, and a bit per node, not an entry.
type levelSeg struct {
	lo    int // the level's first node ID
	start int // offset of the level's first encryption
	below int // emitting nodes with IDs below lo
}

// BatchResult is the outcome of one ProcessBatch: the workload handed to
// the rekey transport protocol, plus bookkeeping for users and tests.
type BatchResult struct {
	// Encryptions in bottom-up (deepest level first, left-to-right)
	// generation order.
	Encryptions []Encryption
	// levels are the segments of Encryptions of the levels that emit,
	// deepest first (the generation order); emitted marks, by node ID,
	// the nodes that contribute an encryption.
	levels  []levelSeg
	emitted rankedBitset
	// MaxKID after the batch; carried in every ENC packet.
	MaxKID int
	// GroupKey after the batch.
	GroupKey keys.Key
	// UserIDs is the sorted list of all current u-node IDs.
	UserIDs []int
	// Joined/Left counts; UpdatedKNodes is the number of k-nodes whose
	// keys changed (including newly created ones).
	Joined, Left, UpdatedKNodes int

	d int
}

// lookup returns the position in Encryptions of the encryption whose
// encrypting-key node is id: its level's start plus the emitting nodes
// of that level below it.
func (r *BatchResult) lookup(id int) (int, bool) {
	below, ok := r.emitted.rank(id)
	if !ok {
		return 0, false
	}
	for _, seg := range r.levels {
		if id >= seg.lo { // levels run deepest first: the first starting at or before id holds it
			return seg.start + below - seg.below, true
		}
	}
	return 0, false
}

// indexLevels builds lookup's index once emission has marked every
// emitting node and recorded every level's start.
func (r *BatchResult) indexLevels() {
	r.emitted.index()
	for i := range r.levels {
		r.levels[i].below, _ = r.emitted.rank(r.levels[i].lo)
	}
}

// Encryption returns the encryption whose encrypting-key node is id.
func (r *BatchResult) Encryption(id int) (Encryption, bool) {
	i, ok := r.lookup(id)
	if !ok {
		return Encryption{}, false
	}
	return r.Encryptions[i], true
}

// NeedsWalker yields, user by user, the encryptions a user requires as
// indexes into Encryptions, in bottom-up order: those whose encrypting
// key lies on the user's path to the root, its own individual key
// included. The d children of one parent share every ancestor, so a
// caller that walks UserIDs in order (they are sorted) pays the
// ancestors' lookups once per sibling group, not once per user. The
// zero value is not usable; a walker holds no heap memory, so one per
// goroutine, or one per call, is free.
type NeedsWalker struct {
	r      *BatchResult
	parent int // node whose chain fills idx[1:1+n]; noParent before the first user
	n      int
	reused bool // the last Needs call kept the chain of the call before
	// idx[0] is the slot of the user's own encryption, idx[1:] the
	// parent's chain. A node at depth h has an ID of at least 2^h-1, so
	// no path is longer than an int has bits.
	idx [1 + 64]int32
}

const noParent = -2 // ParentID never returns it (-1 is the root's)

// Walker returns a walker over r's encryptions.
func (r *BatchResult) Walker() NeedsWalker { return NeedsWalker{r: r, parent: noParent} }

// Needs returns user userID's required encryptions as indexes into
// Encryptions. The slice is the walker's own and is valid until the
// next call.
func (w *NeedsWalker) Needs(userID int) []int32 {
	r := w.r
	p := ParentID(r.d, userID)
	w.reused = p == w.parent
	if !w.reused {
		w.parent, w.n = p, 0
		for id := p; id >= 0; id = ParentID(r.d, id) {
			if i, ok := r.lookup(id); ok {
				w.n++
				w.idx[w.n] = int32(i)
			}
		}
	}
	if i, ok := r.lookup(userID); ok {
		w.idx[0] = int32(i)
		return w.idx[:1+w.n]
	}
	return w.idx[1 : 1+w.n]
}

// Chain reports on the last Needs call: n is the length of the parent's
// chain, the tail of the slice it returned (only the user's own
// encryption can precede it), and reused is whether the call before
// returned the same chain, as it does for siblings. A caller that kept
// what it made of that chain can use it again.
func (w *NeedsWalker) Chain() (n int, reused bool) { return w.n, w.reused }

// UserNeeds returns, in bottom-up order, the encryptions user userID
// requires: those whose encrypting key lies on the user's path to the
// root (including its own individual key). It allocates the result;
// loops over many users should use a NeedsWalker.
func (r *BatchResult) UserNeeds(userID int) []Encryption {
	w := r.Walker()
	needs := w.Needs(userID)
	out := make([]Encryption, len(needs))
	for j, i := range needs {
		out[j] = r.Encryptions[i]
	}
	return out
}

// ProcessBatch applies one rekey interval: the L members in leaves
// depart and the J members in joins arrive, placed and marked by the
// paper's algorithm (mark). It returns the generated rekey workload. A batch
// with no membership change returns an empty BatchResult (no rekeying
// needed).
//
// Every pass runs over the positions the batch touched and their
// ancestors, the rekey subtree, not over the node array. Updated k-node
// keys are drawn in one bulk CSPRNG read and the wrap emission fans out
// over GOMAXPROCS goroutines (tuning.FanOut).
func (t *Tree) ProcessBatch(joins, leaves []Member) (*BatchResult, error) {
	departed, err := t.checkBatch(joins, leaves)
	if err != nil {
		return nil, err
	}
	if len(joins) == 0 && len(leaves) == 0 {
		return t.result(), nil
	}
	at := t.mark(joins, departed)
	rekeyed := t.rekeyKNodes(at)
	res := t.result()
	res.Joined, res.Left, res.UpdatedKNodes = len(joins), len(leaves), len(rekeyed)
	var emitStart time.Time
	if t.reg.Enabled() {
		emitStart = time.Now()
	}
	t.emitParallel(res, rekeyed)
	if t.reg.Enabled() {
		t.reg.Add(obs.CKeysGenerated, int64(len(joins)+len(rekeyed)))
		t.reg.Add(obs.CWraps, int64(len(res.Encryptions)))
		t.reg.Add(obs.CWrapNs, time.Since(emitStart).Nanoseconds())
	}
	return res, nil
}

// batchScratch holds buffers a batch reuses from the last one: none of
// it outlives the call that fills it.
type batchScratch struct {
	leaving bitset   // departing positions seen so far, cleared on return
	joins   []Member // a sorted copy of the joins
	placed  []int    // positions filled other than departed ones
	rekeyed []int    // k-nodes given a new key, ascending
}

// checkBatch rejects a batch that leaves an absent member, joins a
// present one, or names a member twice, and returns the departing
// members' positions in request order. A valid batch builds no map: a
// repeated leave is a repeated position, and a repeated join is two
// equal neighbours in a sorted copy of the joins.
func (t *Tree) checkBatch(joins, leaves []Member) ([]int, error) {
	departed := make([]int, len(leaves))
	for i, m := range leaves {
		id, ok := t.loc[m]
		if !ok {
			return nil, fmt.Errorf("keytree: leave request for unknown member %d", m)
		}
		departed[i] = id
	}
	sc := &t.scratch
	sc.joins = append(sc.joins[:0], joins...)
	slices.Sort(sc.joins)
	repeated := false
	for i := 1; i < len(sc.joins); i++ {
		if sc.joins[i] == sc.joins[i-1] {
			repeated = true
			break
		}
	}
	var seen map[Member]bool
	if repeated {
		// An error is certain; only this path needs to know which join
		// repeats first.
		seen = make(map[Member]bool, len(joins))
	}
	for _, m := range joins {
		if _, ok := t.loc[m]; ok {
			return nil, fmt.Errorf("keytree: join request for already-present member %d", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("keytree: duplicate join request for member %d", m)
		}
		if seen != nil {
			seen[m] = true
		}
	}
	again := -1
	for _, id := range departed {
		if again < 0 && sc.leaving.get(id) {
			again = id
		}
		sc.leaving.set(id)
	}
	for _, id := range departed {
		sc.leaving.clear(id)
	}
	if again >= 0 {
		return nil, fmt.Errorf("keytree: duplicate leave request for member %d", t.nodes[again].member)
	}
	return departed, nil
}

// result returns a BatchResult carrying the tree's current MaxKID,
// group key and user IDs, read off the u-node bitset over the u-region
// window in ID order.
func (t *Tree) result() *BatchResult {
	ids := make([]int, 0, len(t.loc))
	lo, end := t.userWindow()
	for id := t.users.next(lo, end); id < end; id = t.users.next(id+1, end) {
		ids = append(ids, id)
	}
	return &BatchResult{MaxKID: t.maxK, GroupKey: t.GroupKey(), UserIDs: ids, d: t.d}
}

// batch is one batch's marking in progress. Placement labels what it
// changes as it goes -- Leave on a departed position, Join or Replace on
// a filled one -- and records the filled positions that were not
// departed ones; settle derives the rest from those and the departures.
type batch struct {
	t      *Tree
	placed []int      // ascending: window fills, then split siblings
	keys   []keys.Key // the joiners' individual keys not yet placed, in placement order
}

// mark is the tree-update phase of the paper's marking algorithm
// (Appendix B steps 1-4) on a validated batch: departed positions are
// refilled lowest ID first in join arrival order; when leaves outnumber
// joins, emptied k-nodes prune; when joins outnumber leaves, the
// overflow fills the u-region window left to right, then splits expand
// the tree. Joiners are placed in arrival order, and their individual
// keys come from one bulk draw in that order, the stream one draw per
// placement would consume, which TestPaperMarkingGolden pins. It returns
// settle's level bounds into t.touched.
func (t *Tree) mark(joins []Member, departed []int) []int {
	for _, id := range t.touched {
		t.nodes[id].label = Unchanged
	}
	ks, err := t.gen.NewKeys(len(joins))
	if err != nil {
		panic(fmt.Sprintf("keytree: bulk key generation failed: %v", err))
	}
	b := &batch{t: t, placed: t.scratch.placed[:0], keys: ks}
	for _, id := range departed {
		b.remove(id)
	}
	slices.Sort(departed)

	n := min(len(joins), len(departed))
	for i, m := range joins[:n] {
		b.place(departed[i], m)
	}
	if len(joins) > n {
		b.placeExtra(joins[n:])
	}
	clear(ks)
	at := b.settle(departed)
	t.scratch.placed = b.placed
	return at
}

// placeExtra implements the J > L expansion: fill n-node positions with
// IDs in (nk, d*nk+d], then repeatedly split node nk+1, where nk is the
// maximum k-node ID, updating nk after each split. The split node
// becomes its own leftmost child.
func (b *batch) placeExtra(extra []Member) {
	t := b.t
	if t.N() == 0 && t.maxK < 0 {
		// Empty tree: seed it by making the root a k-node over a first
		// leaf, then let the regular expansion take over.
		t.growTo(t.d)
		b.place(1, extra[0])
		t.nodes[0].kind = KNode
		t.maxK = 0
		extra = extra[1:]
	}
	if len(extra) == 0 {
		return
	}
	i := b.fillWindow(extra)
	// Still extra joins: the window is now fully packed, so splitGrow's
	// precondition holds.
	b.splitGrow(extra[i:])
}

// remove departs the member at position id, which the batch prologue
// has validated: the position becomes a vacated n-node.
func (b *batch) remove(id int) {
	delete(b.t.loc, b.t.nodes[id].member)
	b.t.setNode(id, node{kind: NNode, label: Leave})
}

// place installs joiner m at position id with the batch's next fresh
// individual key: Replace if the position departed this same interval,
// Join otherwise. settle has the departed positions
// already; place records the others for it.
func (b *batch) place(id int, m Member) {
	t := b.t
	t.growTo(id)
	label := Join
	if t.nodes[id].label == Leave {
		label = Replace
	} else {
		b.placed = append(b.placed, id)
	}
	t.setNode(id, node{kind: UNode, member: m, key: b.keys[0], label: label})
	b.keys = b.keys[1:]
	t.loc[m] = id
}

// split expands the tree at u-node id per the Theorem 4.2 rule: the
// occupant moves to the leftmost child d*id+1, unlabelled, position id
// becomes the maximum k-node (keyed by rekeyKNodes), and the d-1 sibling
// positions become fresh n-node slots. Members rederive their IDs from
// maxKID alone because no split moves an occupant anywhere else. It
// returns the leftmost child ID.
func (b *batch) split(id int) int {
	t := b.t
	child := t.d*id + 1
	t.growTo(child + t.d - 1)
	m := t.nodes[id]
	m.label = Unchanged
	t.setNode(child, m)
	t.loc[m.member] = child
	t.setNode(id, node{kind: KNode})
	t.maxK = id
	return child
}

// fillWindow places joiners into n-node holes of the u-region window
// (nk, d*nk+d], lowest ID first, and returns how many were placed.
func (b *batch) fillWindow(extra []Member) int {
	t := b.t
	nk := t.maxK
	hi := t.d*nk + t.d
	t.growTo(hi)
	i := 0
	for id := nk + 1; id <= hi && i < len(extra); id++ {
		if t.nodes[id].kind == NNode {
			b.place(id, extra[i])
			i++
		}
	}
	return i
}

// splitGrow expands the tree to absorb joiners once every position of
// the u-region window is occupied: repeatedly split node nk+1 (nk the
// maximum k-node ID, updated by each split) and fill the fresh sibling
// slots. The precondition -- a fully packed window -- makes the split
// target a u-node and the split children the only new holes, so the pass
// is linear instead of a quadratic window rescan. Every split fills at
// least one sibling, so settle reaches the split node as its parent.
func (b *batch) splitGrow(extra []Member) {
	i := 0
	for i < len(extra) {
		child := b.split(b.t.maxK + 1)
		for id := child + 1; id < child+b.t.d && i < len(extra); id++ {
			b.place(id, extra[i])
			i++
		}
	}
}

// settle finishes the marking over the positions the batch touched --
// departed and placed ones -- and their ancestors, one level at a time
// from the deepest: each level's list is the merge of its own touched
// positions with the parents of the level below, which a parent's ID,
// monotone in its child's, keeps ascending with no sort. Both inputs
// ascend: departed is sorted, and placed runs through the window and
// then past it, split by split. The lists go to t.touched, deepest
// level first; level l is t.touched[at[l+1]:at[l]].
//
// Each listed node settles once its children have (settleNode): the
// prune, promotion and relabelling passes of Appendix B in one sweep
// over the rekey subtree. A prune of the maximum k-node leaves MaxKID
// to step down past n-nodes; it rose one split at a time, so over a
// tree's life the steps cost no more than the splits did.
func (b *batch) settle(departed []int) (at []int) {
	t := b.t
	seeds := merge(make([]int, 0, len(departed)+len(b.placed)), departed, b.placed)
	levelStart := t.levelBounds()
	at = make([]int, t.height+2)
	list := t.touched[:0]
	below := 0
	for l := t.height; l >= 0; l-- {
		k := len(seeds)
		for k > 0 && seeds[k-1] >= levelStart[l] {
			k--
		}
		here, up := seeds[k:], list[below:]
		seeds = seeds[:k]
		below = len(list)
		last := -1
		for len(here) > 0 || len(up) > 0 {
			var id int
			if len(up) == 0 || len(here) > 0 && here[0] <= t.Parent(up[0]) {
				id, here = here[0], here[1:]
			} else {
				id, up = t.Parent(up[0]), up[1:]
			}
			if id != last {
				list = append(list, id)
				last = id
			}
		}
		for _, id := range list[below:] {
			t.settleNode(id)
		}
		at[l] = len(list)
	}
	t.touched = list
	for t.maxK >= 0 && t.nodes[t.maxK].kind != KNode {
		t.maxK--
	}
	return at
}

// merge appends to dst the ascending merge of ascending a and b.
func merge(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// settleNode finishes node id once its children are final. A k-node
// with no live child is pruned to a vacated n-node (Leave); an n-node
// with one is promoted to a k-node (rekeyKNodes keys it). A k-node then
// derives its label from its children: Unchanged if all are, Join if
// all are Unchanged or Join, Replace otherwise. u-nodes and the other
// n-nodes keep the label placement gave them.
func (t *Tree) settleNode(id int) {
	n := &t.nodes[id]
	if n.kind == UNode {
		return
	}
	live, allLeave, allUnchanged, allUnchangedOrJoin := false, true, true, true
	first := t.d*id + 1
	for c := first; c < first+t.d; c++ {
		l := Leave
		if c < len(t.nodes) {
			live = live || t.nodes[c].kind != NNode
			l = t.nodes[c].label
		}
		allLeave = allLeave && l == Leave
		allUnchanged = allUnchanged && l == Unchanged
		allUnchangedOrJoin = allUnchangedOrJoin && (l == Unchanged || l == Join)
	}
	switch {
	case !live && n.kind == KNode:
		*n = node{kind: NNode, label: Leave}
		return
	case !live:
		return
	case n.kind == NNode:
		n.kind = KNode
		t.maxK = max(t.maxK, id)
	}
	switch {
	case allLeave:
		// Cannot occur: such k-nodes were pruned to n-nodes.
		n.label = Leave
	case allUnchanged:
		n.label = Unchanged
	case allUnchangedOrJoin:
		n.label = Join
	default:
		n.label = Replace
	}
}

// rekeyKNodes generates new keys for the touched k-nodes labelled Join
// or Replace, in ascending ID order -- levels from the root down, IDs
// ascending within each -- from one bulk generator read, and returns
// them in that order. Generator.NewKeys consumes the CSPRNG stream
// exactly as one MustNewKey per node would.
func (t *Tree) rekeyKNodes(at []int) []int {
	ids := t.scratch.rekeyed[:0]
	for l := 0; l <= t.height; l++ {
		for _, id := range t.touched[at[l+1]:at[l]] {
			n := &t.nodes[id]
			if n.kind == KNode && (n.label == Join || n.label == Replace) {
				ids = append(ids, id)
			}
		}
	}
	t.scratch.rekeyed = ids
	ks, err := t.gen.NewKeys(len(ids))
	if err != nil {
		panic(fmt.Sprintf("keytree: bulk key generation failed: %v", err))
	}
	for i, id := range ids {
		t.nodes[id].key = ks[i]
	}
	return ids
}

// emits reports whether node id, a child of a rekeyed k-node,
// contributes an encryption: it is a live node that did not leave.
func (t *Tree) emits(id int) bool {
	if id >= len(t.nodes) {
		return false
	}
	n := &t.nodes[id]
	return n.kind != NNode && n.label != Leave
}

// levelBounds returns the node-ID ranges of each tree level:
// level l spans [levelStart[l], levelStart[l+1]).
func (t *Tree) levelBounds() []int {
	levelStart := make([]int, t.height+2)
	for l := 1; l <= t.height+1; l++ {
		levelStart[l] = fullSize(t.d, l-1) // nodes in levels 0..l-1
	}
	return levelStart
}

// NewID implements Theorem 4.2: given a user's pre-batch u-node ID m and
// the post-batch maximum k-node ID maxKID, it returns the unique
// post-batch ID f(x) = d^x*m + (d^x-1)/(d-1) with maxKID < f(x) <=
// d*maxKID+d. ok is false if no such x exists (the user is no longer in
// the tree, e.g. it was removed).
func NewID(d, m, maxKID int) (newID int, ok bool) {
	if m < 0 || maxKID < 0 {
		return 0, false
	}
	f := m
	hi := d*maxKID + d
	for f <= hi {
		if f > maxKID {
			return f, true
		}
		f = d*f + 1 // f(x+1) = d*f(x) + 1
	}
	return 0, false
}
