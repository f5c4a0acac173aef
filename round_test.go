package rekey_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestBuildRound checks the round builder against the per-datagram
// calls it stands for, signed and unsigned: every datagram equals
// WireENC's or AppendWireParity's bytes, the datagrams lie back to back,
// At places every ENC packet the round carries and holds -1 for the
// rest, and Parity counts the PARITY datagrams. One Round serves every
// case, as one serves every round of a transport run, and rebuilding
// them allocates nothing once it has grown.
func TestBuildRound(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, signed := range []bool{false, true} {
		opts := []rekey.Option{rekey.WithKeySeed(5)}
		name := "unsigned"
		if signed {
			opts, name = append(opts, rekey.WithSigner(signer)), "signed"
		}
		t.Run(name, func(t *testing.T) {
			srv, err := rekey.NewServer(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < 2048; m++ {
				if err := srv.QueueJoin(rekey.MemberID(m)); err != nil {
					t.Fatal(err)
				}
			}
			rm, err := srv.Rekey()
			if err != nil {
				t.Fatal(err)
			}
			k := rm.Part.K
			if rm.Blocks() < 2 {
				t.Fatalf("%d blocks, want at least 2", rm.Blocks())
			}
			one := protocol.NewSender(rm.Part, 1.2, 0, 0).Refs() // every ENC and two PARITY a block
			var someENC []blockplan.Ref                          // every third ENC dropped, the rest reversed
			for i := len(one) - 1; i >= 0; i-- {
				if !one[i].IsParity(k) && i%3 != 0 {
					someENC = append(someENC, one[i])
				}
			}
			rounds := []struct {
				name string
				refs []blockplan.Ref
			}{
				{"round one", one},
				{"parity only", []blockplan.Ref{{Block: 1, Shard: k + 2}, {Block: 0, Shard: k + 2}, {Block: 1, Shard: k + 3}}},
				{"some ENC out of order", someENC},
			}
			var r rekey.Round
			for _, rd := range rounds {
				if err := rm.BuildRound(context.Background(), &r, rd.refs); err != nil {
					t.Fatalf("%s: %v", rd.name, err)
				}
				if len(r.Offs) != len(rd.refs)+1 || r.Offs[0] != 0 || r.Offs[len(rd.refs)] != len(r.Bytes) {
					t.Fatalf("%s: %d offsets from %d to %d over %d bytes, want %d from 0 to the end",
						rd.name, len(r.Offs), r.Offs[0], r.Offs[len(r.Offs)-1], len(r.Bytes), len(rd.refs)+1)
				}
				at := make([]int, len(rm.ENC))
				for e := range at {
					at[e] = -1
				}
				parity := 0
				for i, ref := range rd.refs {
					var want []byte
					if ref.IsParity(k) {
						want, err = rm.AppendWireParity(nil, ref.Block, ref.Shard-k)
						parity++
					} else {
						want, err = rm.WireENC(ref.Block*k + ref.Shard)
						at[ref.Block*k+ref.Shard] = i
					}
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(r.Datagram(i), want) {
						t.Fatalf("%s: datagram %d (%+v) differs from the per-datagram call", rd.name, i, ref)
					}
				}
				if !slices.Equal(r.At, at) {
					t.Errorf("%s: At = %v, want %v", rd.name, r.At, at)
				}
				if r.Parity != parity {
					t.Errorf("%s: Parity = %d, want %d", rd.name, r.Parity, parity)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				for _, rd := range rounds {
					if err := rm.BuildRound(context.Background(), &r, rd.refs); err != nil {
						t.Fatal(err)
					}
				}
			}); allocs != 0 {
				t.Errorf("reused Round: %v allocs per %d rounds, want 0", allocs, len(rounds))
			}
		})
	}
}

// TestBuildRoundEncodesOnce: a round's parity comes from one encode.
// Building round one of a signed message at rho 1.2 (two PARITY a
// block) observes one parity_encode_s and one parity_per_block a block
// of two; building it again finds every payload encoded and observes
// nothing.
func TestBuildRoundEncodesOnce(t *testing.T) {
	signer, err := keys.NewSigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv, err := rekey.NewServer(rekey.WithKeySeed(9), rekey.WithSigner(signer), rekey.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 512; m++ {
		if err := srv.QueueJoin(rekey.MemberID(m)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := srv.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	refs := protocol.NewSender(rm.Part, 1.2, 0, 0).Refs()
	var r rekey.Round
	for pass := 1; pass <= 2; pass++ {
		if err := rm.BuildRound(context.Background(), &r, refs); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		enc, per := snap.Histograms["parity_encode_s"], snap.Histograms["parity_per_block"]
		if enc.Count != 1 || per.Count != int64(rm.Blocks()) || per.Sum != float64(2*rm.Blocks()) {
			t.Errorf("after build %d: %d parity_encode_s and %d parity_per_block summing to %v, want 1 and %d summing to %d",
				pass, enc.Count, per.Count, per.Sum, rm.Blocks(), 2*rm.Blocks())
		}
	}
}
