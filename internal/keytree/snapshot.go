// Snapshot / Restore: a deterministic byte encoding of the full tree
// state, the failover surface a standby server restarts from. The
// encoding covers exactly what the server must not lose -- degree,
// height and the node array (kinds, keys, member handles); the loc map
// and the sorted user-ID slice are derived state and are rebuilt on
// restore. The key generator is deliberately NOT serialised: a CSPRNG
// position is not state worth resuming (a restarted server draws future
// keys from a fresh generator), so Restore takes one explicitly.

package keytree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/keys"
)

// snapMagic identifies and versions the snapshot encoding.
const snapMagic = "KTSNAP1\n"

// snapHeaderSize is magic + d + height + node count.
const snapHeaderSize = len(snapMagic) + 4 + 4 + 8

// Snapshot encodes the tree's full key state as deterministic bytes:
// two snapshots of identical trees are byte-identical, regardless of
// how the trees reached that state. The caller owns the returned slice.
func (t *Tree) Snapshot() []byte {
	size := snapHeaderSize
	for i := range t.nodes {
		switch t.nodes[i].kind {
		case KNode:
			size += 1 + keys.KeySize
		case UNode:
			size += 1 + keys.KeySize + 8
		default:
			size++
		}
	}
	out := make([]byte, 0, size)
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(t.d))
	out = binary.BigEndian.AppendUint32(out, uint32(t.height))
	out = binary.BigEndian.AppendUint64(out, uint64(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		out = append(out, byte(n.kind))
		switch n.kind {
		case KNode:
			out = append(out, n.key[:]...)
		case UNode:
			out = append(out, n.key[:]...)
			out = binary.BigEndian.AppendUint64(out, uint64(n.member))
		}
	}
	return out
}

// Restore rebuilds a tree from Snapshot bytes. The generator supplies
// all future key draws (it carries no snapshot state); options
// (WithWorkers, WithObs, WithLite) configure the restored
// tree exactly as New would. The restored tree is validated with
// CheckInvariant before it is returned.
func Restore(data []byte, gen *keys.Generator, opts ...Option) (*Tree, error) {
	if len(data) < snapHeaderSize || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("keytree: snapshot: bad magic or truncated header")
	}
	p := len(snapMagic)
	d := int(binary.BigEndian.Uint32(data[p:]))
	height := int(binary.BigEndian.Uint32(data[p+4:]))
	count := binary.BigEndian.Uint64(data[p+8:])
	p = snapHeaderSize
	if d < 2 {
		return nil, fmt.Errorf("keytree: snapshot: degree %d < 2", d)
	}
	if height < 1 || height > 64 {
		return nil, fmt.Errorf("keytree: snapshot: height %d out of range", height)
	}
	if want := fullSize(d, height); count != uint64(want) {
		return nil, fmt.Errorf("keytree: snapshot: %d nodes, want %d for d=%d h=%d", count, want, d, height)
	}
	if gen == nil {
		gen = keys.NewGenerator()
	}
	t := &Tree{
		d:      d,
		height: height,
		nodes:  make([]node, count),
		loc:    make(map[Member]int, 64),
		gen:    gen,
	}
	for _, o := range opts {
		o(t)
	}
	for id := range t.nodes {
		if p >= len(data) {
			return nil, fmt.Errorf("keytree: snapshot: truncated at node %d", id)
		}
		kind := NodeKind(data[p])
		p++
		switch kind {
		case NNode:
		case KNode:
			if p+keys.KeySize > len(data) {
				return nil, fmt.Errorf("keytree: snapshot: truncated key at node %d", id)
			}
			t.nodes[id].kind = KNode
			copy(t.nodes[id].key[:], data[p:p+keys.KeySize])
			p += keys.KeySize
		case UNode:
			if p+keys.KeySize+8 > len(data) {
				return nil, fmt.Errorf("keytree: snapshot: truncated u-node %d", id)
			}
			t.nodes[id].kind = UNode
			copy(t.nodes[id].key[:], data[p:p+keys.KeySize])
			p += keys.KeySize
			m := Member(binary.BigEndian.Uint64(data[p:]))
			p += 8
			if _, dup := t.loc[m]; dup {
				return nil, fmt.Errorf("keytree: snapshot: member %d appears twice", m)
			}
			t.nodes[id].member = m
			t.loc[m] = id
			t.uids = append(t.uids, id)
		default:
			return nil, fmt.Errorf("keytree: snapshot: node %d has invalid kind %d", id, kind)
		}
	}
	if p != len(data) {
		return nil, fmt.Errorf("keytree: snapshot: %d trailing bytes", len(data)-p)
	}
	if err := t.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("keytree: snapshot: restored tree invalid: %w", err)
	}
	return t, nil
}
