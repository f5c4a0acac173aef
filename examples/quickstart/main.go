// Quickstart: create a group key server, register members, process a
// batch of joins and leaves, and let every member derive the new group
// key from its single ENC packet.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	rekey "repro"
)

func main() {
	// A key server with the paper's defaults: degree-4 key tree, FEC
	// block size 10.
	server, err := rekey.NewServer()
	if err != nil {
		log.Fatal(err)
	}

	// Register 64 members; the batch is processed at the end of the
	// rekey interval by Rekey().
	for i := 1; i <= 64; i++ {
		if err := server.QueueJoin(rekey.MemberID(i)); err != nil {
			log.Fatal(err)
		}
	}
	msg, err := server.Rekey()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: %d members, %d encryptions in %d ENC packets (%d FEC blocks)\n",
		server.N(), len(msg.Result.Encryptions), msg.NumRealPackets(), msg.Blocks())

	// Each member is constructed from its registration credentials and
	// fed its one specific ENC packet -- the UKA guarantee.
	members := map[rekey.MemberID]*rekey.Member{}
	for i := 1; i <= 64; i++ {
		cred, _ := server.Credentials(rekey.MemberID(i))
		m, err := rekey.NewMember(cred)
		if err != nil {
			log.Fatal(err)
		}
		deliver(msg, m, cred.NodeID)
		members[rekey.MemberID(i)] = m
	}
	fmt.Printf("group key: %s (all %d members agree: %v)\n",
		server.GroupKey().String(), len(members), mustAgree(server, members))

	// One rekey interval later: members 7 and 23 leave, members 65 and
	// 66 join. One rekey message re-keys everyone.
	for _, id := range []rekey.MemberID{7, 23} {
		if err := server.QueueLeave(id); err != nil {
			log.Fatal(err)
		}
		delete(members, id)
	}
	for _, id := range []rekey.MemberID{65, 66} {
		if err := server.QueueJoin(id); err != nil {
			log.Fatal(err)
		}
	}
	msg, err = server.Rekey()
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range []rekey.MemberID{65, 66} {
		cred, _ := server.Credentials(id)
		m, err := rekey.NewMember(cred)
		if err != nil {
			log.Fatal(err)
		}
		members[id] = m
	}
	for id, m := range members {
		cred, _ := server.Credentials(id)
		deliver(msg, m, cred.NodeID)
	}
	fmt.Printf("after churn (2 leave, 2 join): group key %s (all %d members agree: %v)\n",
		server.GroupKey().String(), len(members), mustAgree(server, members))
}

// deliver hands a member its specific ENC packet over "the wire". (The
// UDP transport finds each member's packet the same way: PacketFor, by
// the member's post-batch node ID.)
func deliver(msg *rekey.RekeyMessage, m *rekey.Member, nodeID int) {
	pi, ok := msg.PacketFor(nodeID)
	if !ok {
		log.Fatalf("no packet for node %d", nodeID)
	}
	raw, _ := msg.WireENC(pi) // cannot fail: PacketFor's index is in range
	if _, err := m.Ingest(raw); err != nil {
		log.Fatal(err)
	}
}

// mustAgree reports that every member holds the server's group key, and
// exits non-zero if one does not.
func mustAgree(server *rekey.Server, members map[rekey.MemberID]*rekey.Member) bool {
	want := server.GroupKey()
	for id, m := range members {
		gk, ok := m.GroupKey()
		if !ok || !gk.Equal(want) {
			log.Fatalf("member %d does not hold the group key", id)
		}
	}
	return true
}
