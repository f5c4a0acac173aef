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
	"sort"
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
	kind   NodeKind
	key    keys.Key
	member Member
	label  Label // scratch, valid only during ProcessBatch
}

// Tree is the key server's key tree. It is not safe for concurrent
// mutation; the key server serialises batches. ProcessBatch fans the
// wrap-emission phase out over GOMAXPROCS goroutines, but the
// caller still sees one synchronous call.
type Tree struct {
	d      int
	height int // depth of the deepest level; root is level 0
	nodes  []node
	loc    map[Member]int // member -> u-node ID
	gen    *keys.Generator
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
func (t *Tree) MaxKID() int {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i].kind == KNode {
			return i
		}
	}
	return -1
}

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
	for id := range t.nodes {
		if t.nodes[id].kind == UNode {
			ms = append(ms, t.nodes[id].member)
		}
	}
	return ms
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

// kindOf is a bounds-tolerant accessor: IDs beyond the allocated slice
// are n-nodes of the conceptual infinite expansion.
func (t *Tree) kindOf(id int) NodeKind {
	if id >= len(t.nodes) {
		return NNode
	}
	return t.nodes[id].kind
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
// ID) plus structural sanity; tests call it after every mutation.
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
	for id := range t.nodes {
		n := &t.nodes[id]
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
	if maxK >= 0 && minU < math.MaxInt && maxK >= minU {
		return fmt.Errorf("keytree: Lemma 4.1 violated: maxKID=%d >= minUID=%d", maxK, minU)
	}
	return nil
}

// Clone returns a deep copy of the tree sharing the key generator and
// metrics registry. The experiment harness clones a populated tree so
// that many trials can apply independent batches to identical starting
// states.
func (t *Tree) Clone() *Tree {
	n := &Tree{d: t.d, height: t.height, gen: t.gen, reg: t.reg}
	n.nodes = append([]node(nil), t.nodes...)
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
	if p := ParentID(r.d, userID); p != w.parent {
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
// Updated k-node keys are drawn in one bulk CSPRNG read and the wrap
// emission fans out over GOMAXPROCS goroutines (tuning.FanOut).
func (t *Tree) ProcessBatch(joins, leaves []Member) (*BatchResult, error) {
	if err := t.checkBatch(joins, leaves); err != nil {
		return nil, err
	}
	if len(joins) == 0 && len(leaves) == 0 {
		return t.result(), nil
	}
	t.mark(joins, leaves)
	updated := t.rekeyKNodes()
	res := t.result()
	res.Joined, res.Left, res.UpdatedKNodes = len(joins), len(leaves), updated
	var emitStart time.Time
	if t.reg.Enabled() {
		emitStart = time.Now()
	}
	t.emitParallel(res)
	if t.reg.Enabled() {
		t.reg.Add(obs.CKeysGenerated, int64(len(joins)+updated))
		t.reg.Add(obs.CWraps, int64(len(res.Encryptions)))
		t.reg.Add(obs.CWrapNs, time.Since(emitStart).Nanoseconds())
	}
	return res, nil
}

// checkBatch rejects a batch that leaves an absent member, joins a
// present one, or names a member twice.
func (t *Tree) checkBatch(joins, leaves []Member) error {
	for _, m := range leaves {
		if _, ok := t.loc[m]; !ok {
			return fmt.Errorf("keytree: leave request for unknown member %d", m)
		}
	}
	seen := make(map[Member]bool, len(joins))
	for _, m := range joins {
		if _, ok := t.loc[m]; ok {
			return fmt.Errorf("keytree: join request for already-present member %d", m)
		}
		if seen[m] {
			return fmt.Errorf("keytree: duplicate join request for member %d", m)
		}
		seen[m] = true
	}
	leaveSet := make(map[Member]bool, len(leaves))
	for _, m := range leaves {
		if leaveSet[m] {
			return fmt.Errorf("keytree: duplicate leave request for member %d", m)
		}
		leaveSet[m] = true
	}
	return nil
}

// result returns a BatchResult carrying the tree's current MaxKID,
// group key and user IDs, read off the node array in ID order.
func (t *Tree) result() *BatchResult {
	ids := make([]int, 0, len(t.loc))
	for id := range t.nodes {
		if t.nodes[id].kind == UNode {
			ids = append(ids, id)
		}
	}
	return &BatchResult{MaxKID: t.MaxKID(), GroupKey: t.GroupKey(), UserIDs: ids, d: t.d}
}

// batch is one batch's placement marks, from which relabel derives the
// rekey subtree: positions filled by a pure join, positions refilled
// after a same-interval departure, and positions vacated this interval
// (u-nodes removed and not refilled, plus pruned k-nodes).
type batch struct {
	t                               *Tree
	joinPos, replacePos, vacatedPos bitset
}

// mark is the tree-update phase of the paper's marking algorithm
// (Appendix B steps 1-4) on a validated batch: departed positions are
// refilled lowest ID first in join arrival order; when leaves outnumber
// joins, emptied k-nodes prune; when joins outnumber leaves, the
// overflow fills the u-region window left to right, then splits expand
// the tree. Individual keys are drawn in placement order, which
// TestPaperMarkingGolden pins.
func (t *Tree) mark(joins, leaves []Member) {
	b := &batch{t: t}
	departed := make([]int, 0, len(leaves))
	for _, m := range leaves {
		departed = append(departed, b.remove(m))
	}
	sort.Ints(departed)

	n := min(len(joins), len(leaves))
	for i, m := range joins[:n] {
		b.place(departed[i], m, true)
	}
	switch {
	case len(joins) < len(leaves):
		// The remaining L-J departed positions stay n-nodes; k-nodes
		// whose children are all n-nodes become n-nodes, up the tree.
		b.pruneEmptyKNodes()
	case len(joins) > len(leaves):
		b.placeExtra(joins[n:])
	}

	// Step 4: any n-node with a descendant u-node becomes a k-node.
	// (Arises when a join fills a position under a pruned subtree.)
	t.promoteNNodes()
	b.relabel()
}

// placeExtra implements the J > L expansion: fill n-node positions with
// IDs in (nk, d*nk+d], then repeatedly split node nk+1, where nk is the
// maximum k-node ID, updating nk after each split. The split node
// becomes its own leftmost child.
func (b *batch) placeExtra(extra []Member) {
	t := b.t
	if t.N() == 0 && t.MaxKID() < 0 {
		// Empty tree: seed it by making the root a k-node over a first
		// leaf, then let the regular expansion take over.
		t.growTo(t.d)
		b.place(1, extra[0], false)
		t.nodes[0].kind = KNode
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

// remove departs member m, whose membership the batch prologue has
// validated: its position becomes a vacated n-node.
func (b *batch) remove(m Member) int {
	id := b.t.loc[m]
	delete(b.t.loc, m)
	b.t.nodes[id] = node{kind: NNode}
	b.vacatedPos.set(id)
	return id
}

// place installs joiner m at position id with a fresh individual key
// drawn from the tree's generator. replaced records whether the
// position was vacated this same interval, which relabel turns into
// Replace rather than Join.
func (b *batch) place(id int, m Member, replaced bool) {
	t := b.t
	t.growTo(id)
	t.nodes[id] = node{kind: UNode, member: m, key: t.gen.MustNewKey()}
	t.loc[m] = id
	b.vacatedPos.clear(id)
	if replaced {
		b.replacePos.set(id)
	} else {
		b.joinPos.set(id)
	}
}

// split expands the tree at u-node id per the Theorem 4.2 rule: the
// occupant moves to the leftmost child d*id+1, position id becomes a
// k-node (keyed by rekeyKNodes), and the d-1 sibling positions become
// fresh n-node slots. Members rederive their IDs from maxKID alone
// because no split moves an occupant anywhere else. It returns the
// leftmost child ID.
func (b *batch) split(id int) int {
	t := b.t
	child := t.d*id + 1
	t.growTo(child + t.d - 1)
	m := t.nodes[id]
	t.nodes[child] = m
	t.loc[m.member] = child
	t.nodes[id] = node{kind: KNode}
	return child
}

// fillWindow places joiners into n-node holes of the u-region window
// (nk, d*nk+d], lowest ID first, and returns how many were placed.
// Positions vacated this interval are marked Replace, inherited holes
// Join.
func (b *batch) fillWindow(extra []Member) int {
	t := b.t
	nk := t.MaxKID()
	hi := t.d*nk + t.d
	t.growTo(hi)
	i := 0
	for id := nk + 1; id <= hi && i < len(extra); id++ {
		if t.kindOf(id) == NNode {
			b.place(id, extra[i], b.vacatedPos.get(id))
			i++
		}
	}
	return i
}

// splitGrow expands the tree to absorb joiners once every position of
// the u-region window is occupied: repeatedly split node nk+1 (nk the
// maximum k-node ID, updated after each split) and fill the fresh
// sibling slots. The precondition -- a fully packed window -- makes the
// split target a u-node and the split children the only new holes, so
// the pass is linear instead of a quadratic window rescan.
func (b *batch) splitGrow(extra []Member) {
	nk := b.t.MaxKID()
	i := 0
	for i < len(extra) {
		split := nk + 1
		child := b.split(split)
		nk = split
		for id := child + 1; id <= child+b.t.d-1 && i < len(extra); id++ {
			b.place(id, extra[i], false)
			i++
		}
	}
}

// pruneEmptyKNodes converts k-nodes whose children are all n-nodes into
// n-nodes, iterating bottom-up until stable, recording the vacated
// positions so relabel marks them Leave.
func (b *batch) pruneEmptyKNodes() {
	t := b.t
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if t.nodes[id].kind != KNode {
			continue
		}
		allN := true
		first := t.d*id + 1
		for c := first; c < first+t.d; c++ {
			if t.kindOf(c) != NNode {
				allN = false
				break
			}
		}
		if allN {
			t.nodes[id] = node{kind: NNode}
			b.vacatedPos.set(id)
		}
	}
}

// promoteNNodes converts n-nodes that acquired a u-node or k-node
// descendant into k-nodes (rekeyKNodes keys them, since their labels
// are necessarily not Unchanged). A single bottom-up pass suffices: a
// node's promotion depends only on deeper nodes.
func (t *Tree) promoteNNodes() {
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if t.nodes[id].kind != NNode {
			continue
		}
		first := t.d*id + 1
		for c := first; c < first+t.d; c++ {
			k := t.kindOf(c)
			if k == UNode || k == KNode {
				t.nodes[id].kind = KNode
				break
			}
		}
	}
}

// relabel labels the rekey subtree bottom-up from the batch's marks:
// n-nodes are Leave only if vacated this interval (holes inherited from
// earlier intervals are no change at all); u-nodes take Join or Replace
// from their placement; a k-node derives its label from its children.
func (b *batch) relabel() {
	t := b.t
	for id := len(t.nodes) - 1; id >= 0; id-- {
		n := &t.nodes[id]
		switch n.kind {
		case NNode:
			if b.vacatedPos.get(id) {
				n.label = Leave
			} else {
				n.label = Unchanged
			}
		case UNode:
			switch {
			case b.joinPos.get(id):
				n.label = Join
			case b.replacePos.get(id):
				n.label = Replace
			default:
				n.label = Unchanged
			}
		case KNode:
			allLeave, allUnchanged, allUnchangedOrJoin := true, true, true
			first := t.d*id + 1
			for c := first; c < first+t.d; c++ {
				var l Label = Leave
				if c < len(t.nodes) {
					l = t.nodes[c].label
				}
				if l != Leave {
					allLeave = false
				}
				if l != Unchanged {
					allUnchanged = false
				}
				if l != Unchanged && l != Join {
					allUnchangedOrJoin = false
				}
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
	}
}

// rekeyKNodes generates new keys for every updated k-node (labels
// Join/Replace), in ascending ID order from one bulk generator read, and
// returns how many there were. Generator.NewKeys consumes the CSPRNG
// stream exactly as one MustNewKey per node would.
func (t *Tree) rekeyKNodes() int {
	ids := make([]int, 0, 64)
	for id := range t.nodes {
		n := &t.nodes[id]
		if n.kind == KNode && (n.label == Join || n.label == Replace) {
			ids = append(ids, id)
		}
	}
	ks, err := t.gen.NewKeys(len(ids))
	if err != nil {
		panic(fmt.Sprintf("keytree: bulk key generation failed: %v", err))
	}
	for i, id := range ids {
		t.nodes[id].key = ks[i]
	}
	return len(ids)
}

// emitEligible reports whether node id (at a level below the root)
// contributes an encryption: it is a live node whose parent k-node got
// a new key, and it did not itself leave. The counting pass and the
// fill share this single test.
func (t *Tree) emitEligible(id int) bool {
	n := &t.nodes[id]
	if n.kind != UNode && n.kind != KNode {
		return false
	}
	p := &t.nodes[t.Parent(id)]
	if p.kind != KNode || (p.label != Join && p.label != Replace) {
		return false
	}
	return n.label != Leave
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
