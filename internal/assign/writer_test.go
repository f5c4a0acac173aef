package assign

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/keytree"
)

// sameENC fails t unless WriteENC and the reference agree on plan:
// the same error, or the same datagrams byte for byte.
func sameENC(t *testing.T, name string, plan *Plan, res *keytree.BatchResult, msgID uint8, k int) {
	t.Helper()
	want, wantErr := refENC(plan, res, msgID, k)
	got, err := writeENC(plan, res, msgID, k)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d datagrams, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: datagram %d of %d differs from the reference", name, i, len(want))
		}
	}
}

// TestWriteENCMatchesMaterialize holds the one ENC writer to the
// Materialize-then-MarshalInto path it replaced, byte for byte: on
// seeded batches of every shape (J > L, J < L, J = L, a bootstrap) at
// the wire capacity and at a small one, at several block sizes; on
// every last-block padding from 1 to k-1 and on one packet, by cutting
// a plan short; on an empty plan; and on plans without Build's index.
func TestWriteENCMatchesMaterialize(t *testing.T) {
	for si, shape := range []struct {
		name       string
		n, j, l    int
		seed       uint64
		capacities []int
	}{
		{"J>L", 1024, 300, 100, 21, []int{Capacity, 8}},
		{"J<L", 1024, 50, 400, 22, []int{Capacity, 8}},
		{"J=L", 1024, 200, 200, 23, []int{Capacity, 6}},
		{"J=L=1", 4096, 1, 1, 24, []int{Capacity}},
		{"bootstrap", 0, 700, 0, 25, []int{Capacity, 8}},
	} {
		_, res := batch(t, shape.n, shape.j, shape.l, shape.seed)
		for _, c := range shape.capacities {
			plan, err := BuildCapacity(res, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 3, 10, 16} {
				msgID := uint8(si*13+k) & 63
				sameENC(t, fmt.Sprintf("%s capacity %d k=%d", shape.name, c, k), plan, res, msgID, k)
			}
			if c != Capacity {
				if len(plan.Packets) < 20 {
					t.Fatalf("%s capacity %d: %d packets, too few to cut", shape.name, c, len(plan.Packets))
				}
				// At k = 10, m packets pad the last block with 10 - m%10
				// duplicates: every padding from 9 down to 1, and none.
				for m := 1; m <= 20; m++ {
					cut := &Plan{Packets: plan.Packets[:m]}
					sameENC(t, fmt.Sprintf("%s capacity %d, first %d packets", shape.name, c, m), cut, res, 9, 10)
				}
			}
		}
	}

	tr := keytree.New(4, keys.NewDeterministicGenerator(5))
	if _, err := tr.ProcessBatch([]keytree.Member{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := tr.ProcessBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	sameENC(t, "empty batch", empty, res, 3, 10)
	sameENC(t, "empty plan", &Plan{}, res, 3, 10)

	_, res = batch(t, 256, 16, 64, 8)
	built, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	byHand, shifted := &Plan{}, &Plan{}
	for _, pp := range built.Packets {
		byHand.Packets = append(byHand.Packets, PacketPlan{FrmID: pp.FrmID, ToID: pp.ToID, EncIDs: pp.EncIDs, Users: pp.Users})
		off := make([]int32, len(pp.encIdx))
		for j, i := range pp.encIdx {
			off[j] = (i + 1) % int32(len(res.Encryptions))
		}
		pp.encIdx = off
		shifted.Packets = append(shifted.Packets, pp)
	}
	sameENC(t, "no index", byHand, res, 12, 10)
	sameENC(t, "stale index", shifted, res, 12, 10)
}

// TestWriteENCErrorParity: each plan the reference refuses, WriteENC
// refuses with the same error, the reference's order included -- a
// packet field too wide for the wire wins over a packet MarshalInto
// would refuse.
func TestWriteENCErrorParity(t *testing.T) {
	_, res := batch(t, 4096, 1024, 1024, 31)
	plan, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := BuildCapacity(res, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow.Packets) <= 256 {
		t.Fatalf("%d packets at capacity 6: too few to overflow the block ID at k = 1", len(narrow.Packets))
	}
	wideKID := *res
	wideKID.MaxKID = 0x10000
	zeroID := *res
	zeroID.Encryptions = append([]keytree.Encryption(nil), res.Encryptions...)
	zeroID.Encryptions[plan.Packets[2].encIdx[3]].ID = 0
	overfull := &Plan{Packets: []PacketPlan{{FrmID: 1, ToID: 2}}}
	for i := range Capacity + 1 {
		overfull.Packets[0].EncIDs = append(overfull.Packets[0].EncIDs, res.Encryptions[i].ID)
	}
	missing := &Plan{Packets: []PacketPlan{plan.Packets[0], {FrmID: 70000, ToID: 70001, EncIDs: []uint32{0xfffffff}}}}
	absent := &Plan{Packets: []PacketPlan{plan.Packets[0], {FrmID: 7, ToID: 9, EncIDs: []uint32{0xfffffff}}}}

	for _, c := range []struct {
		name  string
		plan  *Plan
		res   *keytree.BatchResult
		msgID uint8
		k     int
	}{
		{"message ID 64", plan, res, 64, 10},
		{"MaxKID over 16 bits", plan, &wideKID, 3, 10},
		{"257 blocks at k = 1", narrow, res, 3, 1},
		{"257 blocks at k = 1 and message ID 64", narrow, res, 64, 1},
		{"entry ID 0", plan, &zeroID, 3, 10},
		{"entry ID 0 and message ID 64", plan, &zeroID, 64, 10},
		{"47 entries", overfull, res, 3, 10},
		{"user ID over 16 bits", missing, res, 64, 10},
		{"missing encryption", absent, res, 64, 10},
	} {
		if _, err := refENC(c.plan, c.res, c.msgID, c.k); err == nil {
			t.Fatalf("%s: the reference accepts the plan", c.name)
		}
		sameENC(t, c.name, c.plan, c.res, c.msgID, c.k)
	}

	part, err := blockplan.NewPartition(len(plan.Packets), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.WriteENC(make([][]byte, part.TotalSlots()-1), res, 3, part); err == nil {
		t.Error("WriteENC filled a slot list one short of the partition")
	}
	if err := (&Plan{}).WriteENC(nil, res, 3, blockplan.Partition{}); err == nil {
		t.Error("WriteENC took a partition of block size 0")
	}
}

// FuzzPlanMarshal drives a small seeded tree through a fuzzed script of
// batches and, after each, holds WriteENC to the reference on the
// batch's plan at a fuzzed capacity, block size and message ID.
func FuzzPlanMarshal(f *testing.F) {
	f.Add(uint64(1), uint16(200), []byte{40, 10, 0, 30, 25, 25}, uint8(46), uint8(10), uint8(5))
	f.Add(uint64(2), uint16(1), []byte{0, 1, 120, 0}, uint8(6), uint8(3), uint8(63))
	f.Add(uint64(3), uint16(400), []byte{1, 1, 200, 0}, uint8(9), uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, script []byte, capacity, k, msgID uint8) {
		tr := keytree.New(4, keys.NewDeterministicGenerator(seed))
		next := keytree.Member(0)
		join := func(j int) []keytree.Member {
			ms := make([]keytree.Member, j)
			for i := range ms {
				ms[i], next = next, next+1
			}
			return ms
		}
		if _, err := tr.ProcessBatch(join(int(n%512)+1), nil); err != nil {
			t.Fatal(err)
		}
		for s := 0; s+1 < len(script) && s < 8; s += 2 {
			members := tr.Members()
			l := min(int(script[s+1]), len(members))
			res, err := tr.ProcessBatch(join(int(script[s])), members[:l])
			if err != nil {
				t.Fatal(err)
			}
			plan, err := BuildCapacity(res, int(capacity%Capacity)+8) // a path of up to 8, one over the packet
			if err != nil {
				t.Fatal(err)
			}
			sameENC(t, fmt.Sprintf("batch %d", s/2), plan, res, msgID, int(k%16)+1)
		}
	})
}
