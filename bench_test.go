// Benchmarks regenerating the paper's evaluation: one sub-benchmark per
// figure (BenchmarkFigures), plus micro-benchmarks for the key server's
// unit costs that feed the capacity analysis. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute the registered experiment at quick scale;
// use cmd/rekeybench for paper-scale sweeps and the printed tables.
package rekey_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	rekey "repro"
	"repro/internal/experiments"
	"repro/internal/fec"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// BenchmarkFigures runs every registered experiment (each regenerating
// one paper figure or analysis table) at reduced scale.
func BenchmarkFigures(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := experiments.Options{Quick: true, Messages: 4, Seed: uint64(i + 1)}
				if _, err := e.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarkingAlgorithm measures one batch (J=0, L=N/4) on a
// 4096-user tree: the key management component's per-interval work.
func BenchmarkMarkingAlgorithm(b *testing.B) {
	gen, err := workload.NewGenerator(4096, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.Batch(0, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRekeyMessageMaterialize measures the full server pipeline
// with real cryptography: batch -> UKA -> wire packets, for a 1024-user
// group with 25% churn.
func BenchmarkRekeyMessageMaterialize(b *testing.B) {
	srv, err := rekey.NewServer(rekey.WithKeySeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if err := srv.QueueJoin(rekey.MemberID(i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := srv.Rekey(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	next := rekey.MemberID(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Steady-state churn: 64 members swap out.
		var present []rekey.MemberID
		for m := rekey.MemberID(0); m < next; m++ {
			if _, ok := srv.Credentials(m); ok {
				present = append(present, m)
			}
		}
		perm := rng.Perm(len(present))
		for j := 0; j < 64; j++ {
			if err := srv.QueueLeave(present[perm[j]]); err != nil {
				b.Fatal(err)
			}
			if err := srv.QueueJoin(next); err != nil {
				b.Fatal(err)
			}
			next++
		}
		b.StartTimer()
		if _, err := srv.Rekey(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRekeySigned is build_16k's Rekey call on its own: N=16384,
// J=L=4096 a batch, signed, seeded -- the interval where assignment and
// the USR subtree, both O(N), outweigh the batch. Run with -benchmem.
func BenchmarkRekeySigned(b *testing.B) {
	signer, err := keys.NewSigner(2048)
	if err != nil {
		b.Fatal(err)
	}
	benchRekey(b, 16384, 4096, rekey.WithSigner(signer))
}

// BenchmarkRekeyVsChurn prices Rekey against the batch at N=16384: J=L
// from one member to a quarter of the group, unsigned and signed. The
// paper's batch cost grows with J+L (times log N); what a one-member
// batch still costs is the server's floor in N. Run with -benchmem.
func BenchmarkRekeyVsChurn(b *testing.B) {
	signer, err := keys.NewSigner(2048)
	if err != nil {
		b.Fatal(err)
	}
	for _, signed := range []bool{false, true} {
		mode, opts := "unsigned", []rekey.Option(nil)
		if signed {
			mode, opts = "signed", []rekey.Option{rekey.WithSigner(signer)}
		}
		for _, churn := range []int{1, 16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/J=L=%d", mode, churn), func(b *testing.B) {
				benchRekey(b, 16384, churn, opts...)
			})
		}
	}
}

// benchRekey times Rekey over a seeded group of n members, churn of
// them, drawn at random, leaving and as many joining each batch; the
// queueing is untimed.
func benchRekey(b *testing.B, n, churn int, opts ...rekey.Option) {
	srv, err := rekey.NewServer(append([]rekey.Option{rekey.WithKeySeed(1)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	present := make([]rekey.MemberID, n)
	for i := range present {
		present[i] = rekey.MemberID(i)
		if err := srv.QueueJoin(present[i]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := srv.Rekey(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	next := rekey.MemberID(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < churn; j++ {
			p := j + rng.IntN(n-j)
			present[j], present[p] = present[p], present[j]
			if err := srv.QueueLeave(present[j]); err != nil {
				b.Fatal(err)
			}
			if err := srv.QueueJoin(next); err != nil {
				b.Fatal(err)
			}
			present[j] = next
			next++
		}
		b.StartTimer()
		if _, err := srv.Rekey(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemberIngest measures what one datagram costs a member, by
// what the member still needs from it: own is its specific ENC packet
// (header, 46 encryptions parsed, path keys unwrapped -- the per-user
// per-interval cost), other an ENC packet of another member that has to
// be kept as an FEC shard, parity the same for a PARITY packet, stale
// any packet of a message the member has completed. signed adds the
// interval-auth trailer and a verifying member. In other and parity
// every ingest also starts a new assembly (the two messages alternate),
// which is how the shard buffers come back.
func BenchmarkMemberIngest(b *testing.B) {
	for _, signed := range []bool{false, true} {
		mode := "plain"
		opts := []rekey.Option{rekey.WithKeySeed(3)}
		if signed {
			mode = "signed"
			signer, err := keys.NewSigner(1024)
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, rekey.WithSigner(signer))
		}
		srv, err := rekey.NewServer(opts...)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1024; i++ {
			if err := srv.QueueJoin(rekey.MemberID(i)); err != nil {
				b.Fatal(err)
			}
		}
		rm1, err := srv.Rekey()
		if err != nil {
			b.Fatal(err)
		}
		cred, _ := srv.Credentials(7)
		for i := 0; i < 1024; i += 4 {
			if err := srv.QueueLeave(rekey.MemberID(i)); err != nil {
				b.Fatal(err)
			}
		}
		rm2, err := srv.Rekey()
		if err != nil {
			b.Fatal(err)
		}
		cred2, _ := srv.Credentials(7)
		// The member's packet of the first message; and of each message an
		// ENC packet and a parity shard from a block that is not the
		// member's.
		own, err := rm1.WireENC(rm1.Plan.UserPacket[cred.NodeID])
		if err != nil {
			b.Fatal(err)
		}
		var other, parity [2][]byte
		for i, rm := range []*rekey.RekeyMessage{rm1, rm2} {
			ownBlk, _ := rm.Part.Slot(rm.Plan.UserPacket[[]int{cred.NodeID, cred2.NodeID}[i]])
			blk := (ownBlk + 1) % rm.Blocks()
			if other[i], err = rm.WireENC(blk * rm.Part.K); err != nil {
				b.Fatal(err)
			}
			if parity[i], err = rm.AppendWireParity(nil, blk, 0); err != nil {
				b.Fatal(err)
			}
		}
		newMember := func() *rekey.Member {
			m, err := rekey.NewMember(cred)
			if err != nil {
				b.Fatal(err)
			}
			if signed {
				m.SetVerifier(keys.NewRootVerifier(srv.SignerPublic()))
			}
			return m
		}

		b.Run("own/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			members := make([]*rekey.Member, 256)
			for i := 0; i < b.N; i++ {
				if i%len(members) == 0 {
					b.StopTimer()
					for j := range members {
						members[j] = newMember()
					}
					b.StartTimer()
				}
				if res, err := members[i%len(members)].Ingest(own); err != nil || !res.Done {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
		for name, wires := range map[string][2][]byte{"other": other, "parity": parity} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				m := newMember()
				for i := 0; i < b.N; i++ {
					if res, err := m.Ingest(wires[i%2]); err != nil || res.Duplicate {
						b.Fatalf("res=%+v err=%v", res, err)
					}
				}
			})
		}
		b.Run("stale/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			m := newMember()
			if res, err := m.Ingest(own); err != nil || !res.Done {
				b.Fatalf("res=%+v err=%v", res, err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := m.Ingest(other[0]); !errors.Is(err, rekey.ErrStale) {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPacketSizes are the payload lengths the FEC kernel suite
// sweeps: a small shard, the paper's 1027-byte wire packet, and a
// large block.
var benchPacketSizes = []int{64, 1027, 8192}

// BenchmarkFECEncode measures one-block parity generation with the
// one-pass encoder across block sizes and packet lengths; bytes/op is
// the data read per encode (k*plen), the paper's linear-in-k unit.
func BenchmarkFECEncode(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, k := range []int{1, 5, 10, 20, 50} {
		for _, plen := range benchPacketSizes {
			b.Run(fmt.Sprintf("k%d/%dB", k, plen), func(b *testing.B) {
				c, err := fec.NewCoder(k, k)
				if err != nil {
					b.Fatal(err)
				}
				data := make([][]byte, k)
				for i := range data {
					data[i] = make([]byte, plen)
					for j := range data[i] {
						data[i][j] = byte(rng.Uint32())
					}
				}
				b.SetBytes(int64(k * plen))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.EncodeAll(data, 0, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFECEncodeParallel measures multi-block parity generation
// through the per-rekey-message fan-out at several GOMAXPROCS. On a
// multi-core host throughput should scale near-linearly to 4 Ps; the
// recorded baseline notes the host's core count.
func BenchmarkFECEncodeParallel(b *testing.B) {
	const blocks, k, plen = 32, 10, 1027
	coder, err := fec.NewCoder(k, fec.MaxShards-k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	reqs := make([]protocol.BlockParity, blocks)
	for bi := range reqs {
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, plen)
			for j := range data[i] {
				data[i][j] = byte(rng.Uint32())
			}
		}
		reqs[bi] = protocol.BlockParity{Data: data, First: 0, N: k / 2}
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.SetBytes(int64(blocks * k * plen))
			for i := 0; i < b.N; i++ {
				if _, err := protocol.EncodeBlocks(context.Background(), coder, reqs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead prices the observability layer on the transport
// hot path -- the ENC send fan-out plus NACK parse/aggregate loop
// that udptrans runs per round -- in three configurations:
//
//	baseline  the loop with no instrumentation calls at all
//	nilreg    instrumentation calls on a nil *obs.Registry (the no-op
//	          path every unobserved run takes; must cost < 2% over
//	          baseline, the bound recorded in the bench baseline JSON)
//	live      a real registry absorbing counters and trace events
func BenchmarkObsOverhead(b *testing.B) {
	srv, err := rekey.NewServer(rekey.WithKeySeed(5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := srv.QueueJoin(rekey.MemberID(i)); err != nil {
			b.Fatal(err)
		}
	}
	rm, err := srv.Rekey()
	if err != nil {
		b.Fatal(err)
	}
	nacks := make([][]byte, 64)
	for i := range nacks {
		raw, err := (&packet.NACK{MsgID: rm.MsgID, UserID: uint16(i),
			Requests: []packet.BlockRequest{{Count: 3, BlockID: 0}}}).Marshal()
		if err != nil {
			b.Fatal(err)
		}
		nacks[i] = raw
	}
	var sink int
	run := func(b *testing.B, reg *obs.Registry, instrumented bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for pi := range rm.ENC {
				raw, err := rm.WireENC(pi)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(raw)
				if instrumented {
					reg.Inc(obs.CEncSent)
				}
			}
			amax := 0
			for _, raw := range nacks {
				nk, err := packet.ParseNACK(raw)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range nk.Requests {
					if int(r.Count) > amax {
						amax = int(r.Count)
					}
				}
				if instrumented {
					reg.Inc(obs.CNACKRecv)
					reg.Emit(obs.Event{Kind: obs.EvNACKReceived, MsgID: nk.MsgID,
						User: int(nk.UserID), Value: float64(amax)})
				}
			}
			sink += amax
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, nil, false) })
	b.Run("nilreg", func(b *testing.B) { run(b, nil, true) })
	b.Run("live", func(b *testing.B) { run(b, obs.New(), true) })
	if sink == 42 {
		b.Log("unreachable; defeats dead-code elimination")
	}
}

// BenchmarkKeysWrap prices one {k'}_k encryption as the batch pipeline
// pays it: every tree edge has a distinct child (outer) key, which is
// also the unit of the capacity analysis, and a WrapBatch takes 16
// edges to a flush.
func BenchmarkKeysWrap(b *testing.B) {
	ks, err := keys.NewDeterministicGenerator(4).NewKeys(32)
	if err != nil {
		b.Fatal(err)
	}
	outs := make([][keys.WrappedSize]byte, 16)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		var batch keys.WrapBatch
		for i := 0; i < b.N; i++ {
			l := i % 16
			batch.Add(&outs[l], &ks[l], &ks[16+l])
		}
		batch.Flush()
	})
}

// BenchmarkTheorem42 measures the client-side ID rederivation.
func BenchmarkTheorem42(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, ok := keytree.NewID(4, 5461, 1365); !ok {
			b.Fatal("no ID")
		}
	}
}
