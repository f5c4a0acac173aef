package assign

import "testing"

func TestBaselineCoversAllEncryptions(t *testing.T) {
	_, res := batch(t, 1024, 64, 256, 20)
	plan, err := BuildBaseline(res, Capacity)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range plan.Packets {
		if len(p) > Capacity {
			t.Fatalf("baseline packet holds %d encryptions", len(p))
		}
		total += len(p)
	}
	if total != len(res.Encryptions) {
		t.Fatalf("baseline packs %d entries, rekey subtree has %d (baseline must not duplicate)",
			total, len(res.Encryptions))
	}
}

func TestBaselineUserPacketsSufficient(t *testing.T) {
	_, res := batch(t, 1024, 0, 256, 21)
	plan, err := BuildBaseline(res, Capacity)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.UserIDs {
		inPkts := map[uint32]bool{}
		for _, pi := range plan.UserPackets[u] {
			for _, id := range plan.Packets[pi] {
				inPkts[id] = true
			}
		}
		for _, need := range res.UserNeeds(u) {
			if !inPkts[need.ID] {
				t.Fatalf("user %d: encryption %d not covered by its packets", u, need.ID)
			}
		}
	}
}

func TestBaselineUsersNeedMultiplePackets(t *testing.T) {
	// The motivation for UKA: under the baseline, many users straddle
	// packets once the message spans several packets.
	_, res := batch(t, 1024, 0, 256, 22)
	plan, err := BuildBaseline(res, Capacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Packets) < 2 {
		t.Skip("message too small")
	}
	multi := 0
	for _, pis := range plan.UserPackets {
		if len(pis) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no user needs more than one packet; baseline indistinguishable from UKA")
	}
}

func TestBaselineRejectsBadCapacity(t *testing.T) {
	_, res := batch(t, 64, 0, 8, 23)
	if _, err := BuildBaseline(res, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}
