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
// the encryption IDs it carries (deduplicated within the packet).
type PacketPlan struct {
	FrmID, ToID int
	EncIDs      []uint32
	Users       []int // user node IDs served, ascending
	// encIdx is where Build found each of EncIDs in the batch's
	// Encryptions, so Materialize need not search for them again; a
	// hand-built plan leaves it nil.
	encIdx []int32
}

// encryption returns the packet's j-th encryption from res: at Build's
// index when the plan carries one and it names that encryption of res,
// by the search on its ID otherwise.
func (pp *PacketPlan) encryption(res *keytree.BatchResult, j int) (keytree.Encryption, bool) {
	if j < len(pp.encIdx) {
		if i := int(pp.encIdx[j]); i < len(res.Encryptions) && res.Encryptions[i].ID == pp.EncIDs[j] {
			return res.Encryptions[i], true
		}
	}
	return res.Encryption(int(pp.EncIDs[j]))
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
	// slab: served[first:] is the current packet's.
	served, first := make([]int, 0, len(users)), 0
	var cur PacketPlan

	flush := func() {
		if len(served) == first {
			return
		}
		cur.Users = served[first:len(served):len(served)]
		cur.FrmID = cur.Users[0]
		cur.ToID = cur.Users[len(cur.Users)-1]
		plan.TotalEntries += len(cur.EncIDs)
		plan.Packets = append(plan.Packets, cur)
		cur, first = PacketPlan{}, len(served)
	}

	w := res.Walker()
	for _, u := range users {
		needs := w.Needs(u)
		if len(needs) == 0 {
			continue // no key on this user's path changed
		}
		if len(needs) > capacity {
			return nil, fmt.Errorf("assign: user %d needs %d encryptions, capacity %d", u, len(needs), capacity)
		}
		mark := int32(len(plan.Packets) + 1)
		fresh := 0
		for _, i := range needs {
			if stamp[i] != mark {
				fresh++
			}
		}
		if len(cur.EncIDs)+fresh > capacity {
			flush()
			mark++
		}
		if cur.EncIDs == nil {
			cur.EncIDs = make([]uint32, 0, room)
			cur.encIdx = make([]int32, 0, room)
		}
		for _, i := range needs {
			if stamp[i] == mark {
				continue
			}
			if stamp[i] == 0 {
				plan.DistinctEncryptions++
			}
			stamp[i] = mark
			cur.EncIDs = append(cur.EncIDs, res.Encryptions[i].ID)
			cur.encIdx = append(cur.encIdx, i)
		}
		served = append(served, u)
		plan.UserPacket[u] = len(plan.Packets) // index the packet will get
	}
	flush()
	return plan, nil
}

// Materialize renders the plan into wire-format ENC packet structures
// for rekey message msgID, partitioned into blocks of size k with the
// last block padded by duplicating its packets (round-robin). The
// returned slice has exactly numBlocks*k entries when padding applies;
// duplicates share payload with their originals but carry their own
// block ID and sequence number.
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
			var ok bool
			if e.Encs[j], ok = pp.encryption(res, j); !ok {
				return nil, fmt.Errorf("assign: plan references missing encryption %d", id)
			}
		}
		out = append(out, e)
	}
	return out, nil
}
