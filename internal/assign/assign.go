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
	plan := &Plan{UserPacket: make(map[int]int)}
	users := res.UserIDs
	if !sort.IntsAreSorted(users) {
		return nil, fmt.Errorf("assign: user IDs not sorted")
	}

	distinct := make(map[uint32]bool)
	var cur PacketPlan
	inCur := make(map[uint32]bool)

	flush := func() {
		if len(cur.Users) == 0 {
			return
		}
		cur.FrmID = cur.Users[0]
		cur.ToID = cur.Users[len(cur.Users)-1]
		plan.TotalEntries += len(cur.EncIDs)
		plan.Packets = append(plan.Packets, cur)
		cur = PacketPlan{}
		inCur = make(map[uint32]bool)
	}

	var needs []uint32 // reused per user: the path-walk is the UKA hot loop
	for _, u := range users {
		needs = res.AppendUserNeedIDs(needs[:0], u)
		if len(needs) == 0 {
			continue // no key on this user's path changed
		}
		if len(needs) > capacity {
			return nil, fmt.Errorf("assign: user %d needs %d encryptions, capacity %d", u, len(needs), capacity)
		}
		fresh := 0
		for _, id := range needs {
			if !inCur[id] {
				fresh++
			}
		}
		if len(cur.EncIDs)+fresh > capacity {
			flush()
			fresh = len(needs)
		}
		for _, id := range needs {
			if !inCur[id] {
				inCur[id] = true
				cur.EncIDs = append(cur.EncIDs, id)
			}
			distinct[id] = true
		}
		cur.Users = append(cur.Users, u)
		plan.UserPacket[u] = len(plan.Packets) // index the packet will get
	}
	flush()
	plan.DistinctEncryptions = len(distinct)
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
		for _, id := range pp.EncIDs {
			enc, ok := res.Encryption(int(id))
			if !ok {
				return nil, fmt.Errorf("assign: plan references missing encryption %d", id)
			}
			e.Encs = append(e.Encs, enc)
		}
		out = append(out, e)
	}
	return out, nil
}
