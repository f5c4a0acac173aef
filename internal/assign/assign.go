// Package assign implements the User-oriented Key Assignment (UKA)
// algorithm: it packs the encryptions of a rekey message into ENC
// packets such that every user's encryptions land in a single packet,
// so the vast majority of users need exactly one specific packet per
// rekey message.
//
// UKA sorts users by ID and repeatedly extracts the longest prefix whose
// combined encryption set fills one packet; the resulting packets carry
// non-overlapping, increasing [FrmID, ToID] user ranges (the property the
// user-side block-ID estimator relies on). Users in different packets
// that share path encryptions receive duplicates, the "duplication
// overhead" evaluated in the paper's Section 4.4.
package assign

import (
	"fmt"
	"sort"

	"repro/internal/blockplan"
	"repro/internal/keytree"
	"repro/internal/packet"
)

// PacketPlan describes one planned ENC packet: the users it serves and
// the encryption IDs it carries (deduplicated within the packet). Build
// cuts every packet's slices from slabs the plan shares (Users from the
// batch's own UserIDs when no user is skipped), so they are read-only:
// a write through one shows in the batch or in the slab's other runs.
type PacketPlan struct {
	FrmID, ToID int
	EncIDs      []uint32
	Users       []int // user node IDs served, ascending
	// encIdx is where Build found each of EncIDs in the batch's
	// Encryptions, so WriteENC and Materialize need not search for them
	// again; a hand-built plan leaves it nil.
	encIdx []int32
}

// encryption returns the packet's j-th encryption from res: at Build's
// index when the plan carries one and it names that encryption of res,
// by the search on its ID otherwise.
func (pp *PacketPlan) encryption(res *keytree.BatchResult, j int) (*keytree.Encryption, bool) {
	if j < len(pp.encIdx) {
		if i := int(pp.encIdx[j]); i < len(res.Encryptions) && res.Encryptions[i].ID == pp.EncIDs[j] {
			return &res.Encryptions[i], true
		}
	}
	e, ok := res.Encryption(int(pp.EncIDs[j]))
	return &e, ok
}

// Plan is the output of the UKA algorithm for one rekey message.
type Plan struct {
	Packets []PacketPlan
	// UserPacket maps each user node ID to the index (into Packets) of
	// its specific ENC packet.
	UserPacket map[int]int
	// TotalEntries is the number of encryption entries across all
	// packets, counting duplicates.
	TotalEntries int
	// DistinctEncryptions is the number of distinct encryptions assigned.
	DistinctEncryptions int
}

// DuplicationOverhead is the ratio of duplicated encryptions to the
// total number of encryptions in the rekey subtree.
func (p *Plan) DuplicationOverhead() float64 {
	if p.DistinctEncryptions == 0 {
		return 0
	}
	return float64(p.TotalEntries-p.DistinctEncryptions) / float64(p.DistinctEncryptions)
}

// Capacity is the per-packet encryption budget used by Build; exposed so
// analyses can model other packet sizes.
const Capacity = packet.MaxEncPerPacket

// Build runs UKA over one batch with the default packet capacity.
func Build(res *keytree.BatchResult) (*Plan, error) {
	return BuildCapacity(res, Capacity)
}

// BuildCapacity runs UKA with an explicit per-packet capacity.
func BuildCapacity(res *keytree.BatchResult, capacity int) (*Plan, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("assign: capacity %d, must be positive", capacity)
	}
	users := res.UserIDs
	if !sort.IntsAreSorted(users) {
		return nil, fmt.Errorf("assign: user IDs not sorted")
	}
	plan := &Plan{UserPacket: make(map[int]int, len(users))}

	// stamp[i] is 1 + the index of the last packet Encryptions[i] went
	// into; zero means it has gone into none yet.
	stamp := make([]int32, len(res.Encryptions))
	room := min(capacity, len(res.Encryptions))
	// Each user is served once, so every packet's Users is a run of one
	// slab: served[first:] is the current packet's. Until a user is
	// skipped the served users are a prefix of users, so the slab is
	// users itself; the first skip copies that prefix out.
	served, first := users[:0:0], 0
	aliased := true
	// Every packet's EncIDs and encIdx are runs of two slabs, sized for
	// the distinct encryptions plus a duplicated path every few packets:
	// ids[start:] is the current packet's. A packet starts a new pair
	// when the current one has less room left than a full packet.
	chunk := len(res.Encryptions) + len(res.Encryptions)/4 + room
	ids, idx, start := make([]uint32, 0, chunk), make([]int32, 0, chunk), 0

	flush := func() {
		if len(served) == first {
			return
		}
		pp := PacketPlan{
			Users:  served[first:len(served):len(served)],
			EncIDs: ids[start:len(ids):len(ids)],
			encIdx: idx[start:len(idx):len(idx)],
		}
		pp.FrmID, pp.ToID = pp.Users[0], pp.Users[len(pp.Users)-1]
		plan.TotalEntries += len(pp.EncIDs)
		plan.Packets = append(plan.Packets, pp)
		first = len(served)
		if cap(ids)-len(ids) < room {
			chunk = max(room, chunk/4)
			ids, idx = make([]uint32, 0, chunk), make([]int32, 0, chunk)
		}
		start = len(ids)
	}

	// chainMark is the mark of the packet holding every encryption of the
	// walker's current parent chain, zero when no packet is known to. A
	// sibling of the last served user then adds only its own encryption.
	var chainMark int32
	w := res.Walker()
	for ui, u := range users {
		needs := w.Needs(u)
		chain, reused := w.Chain()
		if !reused {
			chainMark = 0
		}
		if len(needs) == 0 {
			if aliased {
				served, aliased = append(make([]int, 0, len(users)), served...), false
			}
			continue // no key on this user's path changed
		}
		if len(needs) > capacity {
			return nil, fmt.Errorf("assign: user %d needs %d encryptions, capacity %d", u, len(needs), capacity)
		}
		mark := int32(len(plan.Packets) + 1)
		todo := needs
		if chainMark == mark {
			todo = needs[:len(needs)-chain]
		}
		fresh := 0
		for _, i := range todo {
			if stamp[i] != mark {
				fresh++
			}
		}
		if len(ids)-start+fresh > capacity {
			flush()
			mark++
			todo = needs // the new packet holds none of the chain
		}
		for _, i := range todo {
			if stamp[i] == mark {
				continue
			}
			if stamp[i] == 0 {
				plan.DistinctEncryptions++
			}
			stamp[i] = mark
			ids = append(ids, res.Encryptions[i].ID)
			idx = append(idx, i)
		}
		chainMark = mark
		if aliased {
			served = users[:ui+1]
		} else {
			served = append(served, u)
		}
		plan.UserPacket[u] = len(plan.Packets) // index the packet will get
	}
	flush()
	return plan, nil
}

// WriteENC writes the plan's ENC datagrams for rekey message msgID,
// partitioned as part, straight into dst: dst[i] is data slot i's
// packet.PacketLen bytes, send order, and gets its header, its packet's
// entries read off res and zero padding. A last-block duplicate copies
// its original's bytes and takes its own block, sequence number and
// duplicate flag. The bytes are those Materialize's packets marshal to,
// and a plan either refuses fails with the same error: a packet field
// too wide for the wire first, then the first packet MarshalInto refuses.
func (p *Plan) WriteENC(dst [][]byte, res *keytree.BatchResult, msgID uint8, part blockplan.Partition) error {
	n, k := len(p.Packets), part.K
	if k <= 0 {
		return fmt.Errorf("assign: block size %d, must be positive", k)
	}
	if part.NumReal != n || len(dst) != part.TotalSlots() {
		return fmt.Errorf("assign: %d buffers for %d packets in blocks of %d", len(dst), n, k)
	}
	if n == 0 {
		return nil
	}
	if res.MaxKID > 0xffff {
		return fmt.Errorf("assign: maxKID %d exceeds 16-bit wire field", res.MaxKID)
	}
	// late is the first packet's marshalling error, held until every
	// packet's fields have passed.
	var late error
	for i := range p.Packets {
		pp := &p.Packets[i]
		if pp.FrmID > 0xffff || pp.ToID > 0xffff {
			return fmt.Errorf("assign: user ID range [%d,%d] exceeds 16-bit wire field", pp.FrmID, pp.ToID)
		}
		if i/k > 0xff {
			return fmt.Errorf("assign: block ID %d exceeds 8-bit wire field", i/k)
		}
		b := dst[i]
		h := packet.ENCHeader{
			MsgID: msgID, BlockID: uint8(i / k), Seq: uint8(i % k),
			MaxKID: uint16(res.MaxKID), FrmID: uint16(pp.FrmID), ToID: uint16(pp.ToID),
		}
		err := packet.PutENCHeader(b, &h, len(pp.EncIDs))
		off := packet.ENCHeaderLen
		for j, id := range pp.EncIDs {
			e, ok := pp.encryption(res, j)
			if !ok {
				return fmt.Errorf("assign: plan references missing encryption %d", id)
			}
			if err == nil {
				err = packet.PutEncEntry(b[off:], e)
				off += packet.EncEntryLen
			}
		}
		if err == nil {
			clear(b[off:])
		} else if late == nil {
			late = err
		}
	}
	if late != nil {
		return late
	}
	for i := n; i < len(dst); i++ {
		src := part.RealIndex(i/k, i%k)
		pp := &p.Packets[src]
		h := packet.ENCHeader{
			MsgID: msgID, BlockID: uint8(i / k), Seq: uint8(i % k), Dup: true,
			MaxKID: uint16(res.MaxKID), FrmID: uint16(pp.FrmID), ToID: uint16(pp.ToID),
		}
		copy(dst[i], dst[src])
		if err := packet.PutENCHeader(dst[i], &h, len(pp.EncIDs)); err != nil {
			return err
		}
	}
	return nil
}

// Materialize renders the plan into wire-format ENC packet structures
// for rekey message msgID, partitioned into blocks of size k with the
// last block padded by duplicating its packets (round-robin). The
// returned slice has exactly numBlocks*k entries when padding applies;
// duplicates share payload with their originals but carry their own
// block ID and sequence number. The server writes its datagrams with
// WriteENC instead; Materialize serves callers that want the packets as
// structs, and, marshalled, is WriteENC's reference.
func Materialize(plan *Plan, res *keytree.BatchResult, msgID uint8, k int) ([]*packet.ENC, error) {
	if k <= 0 {
		return nil, fmt.Errorf("assign: block size %d, must be positive", k)
	}
	n := len(plan.Packets)
	if n == 0 {
		return nil, nil
	}
	if res.MaxKID > 0xffff {
		return nil, fmt.Errorf("assign: maxKID %d exceeds 16-bit wire field", res.MaxKID)
	}
	part, err := blockplan.NewPartition(n, k)
	if err != nil {
		return nil, err
	}
	total := part.TotalSlots()
	out := make([]*packet.ENC, 0, total)
	for i := 0; i < total; i++ {
		// Last-block slots beyond the real packets duplicate round-robin.
		src := part.RealIndex(i/k, i%k)
		pp := plan.Packets[src]
		if pp.FrmID > 0xffff || pp.ToID > 0xffff {
			return nil, fmt.Errorf("assign: user ID range [%d,%d] exceeds 16-bit wire field", pp.FrmID, pp.ToID)
		}
		if i/k > 0xff {
			return nil, fmt.Errorf("assign: block ID %d exceeds 8-bit wire field", i/k)
		}
		e := &packet.ENC{
			MsgID:   msgID,
			BlockID: uint8(i / k),
			Seq:     uint8(i % k),
			Dup:     part.IsDuplicate(i/k, i%k),
			MaxKID:  uint16(res.MaxKID),
			FrmID:   uint16(pp.FrmID),
			ToID:    uint16(pp.ToID),
		}
		e.Encs = make([]keytree.Encryption, len(pp.EncIDs))
		for j, id := range pp.EncIDs {
			enc, ok := pp.encryption(res, j)
			if !ok {
				return nil, fmt.Errorf("assign: plan references missing encryption %d", id)
			}
			e.Encs[j] = *enc
		}
		out = append(out, e)
	}
	return out, nil
}
