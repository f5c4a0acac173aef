// Pay-per-view: the paper's motivating application. A 4096-user group
// receives content encrypted under the evolving group key; each rekey
// interval processes a batch of subscription churn, and a user whose
// subscription lapses is provably locked out of subsequent content
// while every remaining subscriber keeps decrypting seamlessly.
//
//	go run ./examples/payperview
package main

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"

	rekey "repro"
	"repro/internal/keys"
)

const subscribers = 4096

func main() {
	server, err := rekey.NewServer()
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= subscribers; i++ {
		if err := server.QueueJoin(rekey.MemberID(i)); err != nil {
			log.Fatal(err)
		}
	}
	msg, err := server.Rekey()
	if err != nil {
		log.Fatal(err)
	}
	members := map[rekey.MemberID]*rekey.Member{}
	for i := 1; i <= subscribers; i++ {
		members[rekey.MemberID(i)] = mustMember(server, rekey.MemberID(i), msg)
	}
	fmt.Printf("bootstrapped %d subscribers: %d ENC packets, %d encryptions, dup overhead %.3f\n",
		server.N(), msg.NumRealPackets(), len(msg.Result.Encryptions), msg.Plan.DuplicationOverhead())

	rng := rand.New(rand.NewPCG(7, 7))
	nextID := rekey.MemberID(subscribers + 1)
	var lapsed *rekey.Member
	var lapsedID rekey.MemberID

	for interval := 1; interval <= 5; interval++ {
		// Broadcast this interval's content under the current group key.
		content := fmt.Sprintf("interval %d: pay-per-view frame data", interval)
		ct := seal(server.GroupKey(), []byte(content))

		// Every subscriber decrypts.
		ok := 0
		for _, m := range members {
			gk, have := m.GroupKey()
			if have && bytes.Equal(open(gk, ct), []byte(content)) {
				ok++
			}
		}
		fmt.Printf("interval %d: %d/%d subscribers decrypted the broadcast\n", interval, ok, len(members))
		if ok != len(members) {
			log.Fatalf("interval %d: %d subscribers could not decrypt", interval, len(members)-ok)
		}
		if lapsed != nil {
			gk, _ := lapsed.GroupKey()
			if bytes.Equal(open(gk, ct), []byte(content)) {
				log.Fatalf("lapsed subscriber %d decrypted interval %d!", lapsedID, interval)
			}
			fmt.Printf("interval %d: lapsed subscriber %d locked out\n", interval, lapsedID)
		}

		// Churn: ~2% lapse (one of them tracked), ~2% subscribe.
		var leaves []rekey.MemberID
		for id := range members {
			if rng.Float64() < 0.02 {
				leaves = append(leaves, id)
			}
		}
		if len(leaves) == 0 {
			for id := range members {
				leaves = append(leaves, id)
				break
			}
		}
		for _, id := range leaves {
			if err := server.QueueLeave(id); err != nil {
				log.Fatal(err)
			}
		}
		lapsedID = leaves[0]
		lapsed = members[lapsedID]
		for _, id := range leaves {
			delete(members, id)
		}
		joins := rng.IntN(100) + 20
		var fresh []rekey.MemberID
		for j := 0; j < joins; j++ {
			fresh = append(fresh, nextID)
			if err := server.QueueJoin(nextID); err != nil {
				log.Fatal(err)
			}
			nextID++
		}

		msg, err = server.Rekey()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rekey %d: %d leave, %d join -> %d ENC packets (%d blocks), %d updated keys\n",
			interval, len(leaves), len(fresh), msg.NumRealPackets(), msg.Blocks(), msg.Result.UpdatedKNodes)
		for _, id := range fresh {
			members[id] = mustMember(server, id, msg)
		}
		for id, m := range members {
			cred, _ := server.Credentials(id)
			deliver(msg, m, cred.NodeID)
		}
	}
	fmt.Println("done: forward secrecy held across all intervals")
}

func mustMember(server *rekey.Server, id rekey.MemberID, msg *rekey.RekeyMessage) *rekey.Member {
	cred, ok := server.Credentials(id)
	if !ok {
		log.Fatalf("no credentials for %d", id)
	}
	m, err := rekey.NewMember(cred)
	if err != nil {
		log.Fatal(err)
	}
	deliver(msg, m, cred.NodeID)
	return m
}

func deliver(msg *rekey.RekeyMessage, m *rekey.Member, nodeID int) {
	pi, ok := msg.PacketFor(nodeID)
	if !ok {
		log.Fatalf("no packet for node %d", nodeID)
	}
	raw, _ := msg.WireENC(pi) // cannot fail: PacketFor's index is in range
	// Fresh joiners are keyed at construction and see their packet a
	// second time in the delivery sweep; that duplicate is ErrStale by
	// design, not a failure.
	if _, err := m.Ingest(raw); err != nil && !errors.Is(err, rekey.ErrStale) {
		log.Fatal(err)
	}
}

// seal encrypts content under the group key with AES-CTR (zero IV is
// fine here: each interval uses a fresh key).
func seal(gk keys.Key, plaintext []byte) []byte {
	block, err := aes.NewCipher(gk[:])
	if err != nil {
		log.Fatal(err)
	}
	out := make([]byte, len(plaintext))
	cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(out, plaintext)
	return out
}

//rekeylint:declassify the AEAD-opened broadcast payload is pay-per-view content, not key material
func open(gk keys.Key, ct []byte) []byte {
	return seal(gk, ct) // CTR is symmetric
}
