package workload

import (
	"testing"
)

// FuzzGeneratorBatch drives Generator.Batch with arbitrary bounded
// parameters and checks the structural contract: the l>n error path,
// post-batch population accounting, and UKA plan consistency (every
// user's packet exists and carries every encryption that user needs).
func FuzzGeneratorBatch(f *testing.F) {
	f.Add(uint16(8), uint8(0), uint64(1), uint16(3), uint16(2))
	f.Add(uint16(255), uint8(2), uint64(42), uint16(64), uint16(64))
	f.Add(uint16(100), uint8(1), uint64(7), uint16(0), uint16(512))
	f.Add(uint16(1), uint8(5), uint64(9), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, n uint16, d uint8, seed uint64, j, l uint16) {
		nn := int(n%1024) + 1
		dd := int(d%7) + 2
		jj := int(j % 256)
		ll := int(l % 2048)
		g, err := NewGenerator(nn, dd, seed)
		if err != nil {
			t.Fatalf("valid params rejected: %v", err)
		}
		res, plan, err := g.Batch(jj, ll)
		if ll > nn {
			if err == nil {
				t.Fatalf("Batch(%d,%d) on n=%d: expected error", jj, ll, nn)
			}
			return
		}
		if jj == 0 && ll == 0 {
			// Empty batch: the tree layer rejects no-op rekeys.
			if err == nil && len(res.Encryptions) != 0 {
				t.Fatalf("empty batch emitted %d encryptions", len(res.Encryptions))
			}
			return
		}
		if ll == nn && jj == 0 {
			// Emptying the group entirely may be rejected; either way is
			// acceptable, but a success must report zero users.
			if err == nil && len(res.UserIDs) != 0 {
				t.Fatalf("full leave left %d users", len(res.UserIDs))
			}
			return
		}
		if err != nil {
			t.Fatalf("Batch(%d,%d) on n=%d: %v", jj, ll, nn, err)
		}
		if got, want := len(res.UserIDs), nn+jj-ll; got != want {
			t.Fatalf("post-batch users %d, want %d", got, want)
		}
		for _, uid := range res.UserIDs {
			if uid <= res.MaxKID {
				t.Fatalf("user ID %d <= maxKID %d", uid, res.MaxKID)
			}
			need := res.UserNeeds(uid)
			if len(need) == 0 {
				continue
			}
			pi, ok := plan.UserPacket[uid]
			if !ok {
				t.Fatalf("user %d needs %d encryptions but has no packet", uid, len(need))
			}
			if pi < 0 || pi >= len(plan.Packets) {
				t.Fatalf("user %d assigned packet %d of %d", uid, pi, len(plan.Packets))
			}
			pkt := plan.Packets[pi]
			if uid < pkt.FrmID || uid > pkt.ToID {
				t.Fatalf("user %d outside packet range [%d,%d]", uid, pkt.FrmID, pkt.ToID)
			}
			carried := make(map[uint32]bool, len(pkt.EncIDs))
			for _, id := range pkt.EncIDs {
				carried[id] = true
			}
			for _, e := range need {
				if !carried[e.ID] {
					t.Fatalf("user %d packet %d missing encryption %d", uid, pi, e.ID)
				}
			}
		}
	})
}
