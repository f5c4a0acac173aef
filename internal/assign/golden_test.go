package assign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/keytree"
)

// planDigest hashes everything Build returns: per packet FrmID, ToID,
// EncIDs and Users in order, then UserPacket sorted by user, then the
// two counters.
func planDigest(p *Plan) string {
	h := sha256.New()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.BigEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(len(p.Packets))
	for _, pp := range p.Packets {
		put(pp.FrmID, pp.ToID, len(pp.EncIDs))
		for _, id := range pp.EncIDs {
			put(int(id))
		}
		put(len(pp.Users))
		put(pp.Users...)
	}
	users := make([]int, 0, len(p.UserPacket))
	for u := range p.UserPacket {
		users = append(users, u)
	}
	sort.Ints(users)
	put(len(users))
	for _, u := range users {
		put(u, p.UserPacket[u])
	}
	put(p.TotalEntries, p.DistinctEncryptions)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// planGolden pins Build's whole output on one seeded tree taken through
// the four batch shapes, at the wire capacity and at one that barely
// holds a path. bench/trace.go replays Build on every traced interval
// and compares the marshalled packets with what the server sent, so a
// change here is a change of wire bytes.
var planGolden = []struct {
	name          string
	joins, leaves [2]int // [first, count] member ranges
	cap46, cap5   string
}{
	{"bootstrap", [2]int{0, 600}, [2]int{},
		"8b21416449eac13395ca9ea8a4a8bb75bef5e1123c3a8621bc9f14ec7a91f476",
		"c921174341b877818dae3b80381a232edc382496732ed35d4cc208151f422173"},
	{"join-only", [2]int{600, 300}, [2]int{},
		"64e3e4f9a08bb594fd7e78bb1168bbce9482af9e59da88c6c7752e57ecc889ad",
		"a583c024eb2107ae1ce211b343641d953decda37cc9e3f59585302a024de3007"},
	{"leave-only", [2]int{}, [2]int{50, 200},
		"9a68a0fd75fa0076626d0ea07f963b6e18ce9e934c07737807dcc8f7cea25d12",
		"3a84db5843e8d6cd7fa5570bf0b1632f84703e5765c8a798c70d8662bda7570f"},
	{"replace", [2]int{900, 150}, [2]int{400, 150},
		"99cb42ccb7f9d4441142d653a4bb0b7b6f3329d7b9425582f1cca07752247e18",
		"a09b93a5096563b81d40e611077c1db569014aac61f2cc8d6a83e8b9f31fe321"},
}

func memberRange(r [2]int) []keytree.Member {
	ms := make([]keytree.Member, r[1])
	for i := range ms {
		ms[i] = keytree.Member(r[0] + i)
	}
	return ms
}

func TestBuildPlanGolden(t *testing.T) {
	tr := keytree.New(4, keys.NewDeterministicGenerator(0x5eed))
	for _, gc := range planGolden {
		res, err := tr.ProcessBatch(memberRange(gc.joins), memberRange(gc.leaves))
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, c := range []struct {
			capacity int
			want     string
		}{{Capacity, gc.cap46}, {5, gc.cap5}} {
			plan, err := BuildCapacity(res, c.capacity)
			if err != nil {
				t.Fatalf("%s capacity %d: %v", gc.name, c.capacity, err)
			}
			if got := planDigest(plan); got != c.want {
				t.Errorf("%s capacity %d (%d packets): digest %s, want %s",
					gc.name, c.capacity, len(plan.Packets), got, c.want)
			}
		}
	}
}

// samePacketOf holds PacketOf to the UserPacket map Build fills, over
// every ID from 0 to one past the batch's largest node ID: members and
// unchanged users inside a packet's range alike, k-node IDs, and IDs
// past the last packet.
func samePacketOf(t *testing.T, name string, plan *Plan, res *keytree.BatchResult) {
	t.Helper()
	for id := 0; id <= res.MaxKID+1; id++ {
		want, wantOK := plan.UserPacket[id]
		got, ok := plan.PacketOf(id)
		if ok != wantOK || got != want {
			t.Fatalf("%s: PacketOf(%d) = %d, %v; UserPacket has %d, %v", name, id, got, ok, want, wantOK)
		}
	}
}

// TestPacketOfMatchesUserPacket runs samePacketOf on every golden plan.
func TestPacketOfMatchesUserPacket(t *testing.T) {
	tr := keytree.New(4, keys.NewDeterministicGenerator(0x5eed))
	for _, gc := range planGolden {
		res, err := tr.ProcessBatch(memberRange(gc.joins), memberRange(gc.leaves))
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, capacity := range []int{Capacity, 5} {
			plan, err := BuildCapacity(res, capacity)
			if err != nil {
				t.Fatalf("%s capacity %d: %v", gc.name, capacity, err)
			}
			samePacketOf(t, fmt.Sprintf("%s capacity %d", gc.name, capacity), plan, res)
		}
	}
}
