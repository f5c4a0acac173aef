package assign

import (
	"fmt"

	"repro/internal/keytree"
)

// BaselinePlan is the output of the encryption-oriented baseline
// assignment: encryptions are packed into packets in generation order
// with no regard to users, so a user's encryptions can straddle several
// packets. It exists as the comparison point motivating UKA: the
// probability that a user receives all of its packets in one round
// drops with every extra packet it depends on.
type BaselinePlan struct {
	// Packets[i] lists the encryption IDs in packet i.
	Packets [][]uint32
	// UserPackets maps each user node ID to the (possibly several)
	// packets it needs.
	UserPackets map[int][]int
}

// BuildBaseline packs encryptions sequentially ("encryption-oriented
// assignment"), capacity encryptions per packet. Unlike UKA it sends no
// duplicates -- its entry count is exactly the rekey subtree size --
// but users may need up to tree-height packets.
func BuildBaseline(res *keytree.BatchResult, capacity int) (*BaselinePlan, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("assign: capacity %d, must be positive", capacity)
	}
	plan := &BaselinePlan{UserPackets: make(map[int][]int)}
	for i := 0; i < len(res.Encryptions); i += capacity {
		encs := res.Encryptions[i:min(i+capacity, len(res.Encryptions))]
		pkt := make([]uint32, len(encs))
		for j, e := range encs {
			pkt[j] = e.ID
		}
		plan.Packets = append(plan.Packets, pkt)
	}
	// Encryption i sits in packet i/capacity. A user's needs run bottom-up
	// and Encryptions deepest level first, so its packets come ascending
	// and a repeat is always the last one recorded.
	w := res.Walker()
	for _, u := range res.UserIDs {
		for _, i := range w.Needs(u) {
			pi := int(i) / capacity
			if ps := plan.UserPackets[u]; len(ps) == 0 || ps[len(ps)-1] != pi {
				plan.UserPackets[u] = append(ps, pi)
			}
		}
	}
	return plan, nil
}
