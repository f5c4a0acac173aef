package rekey

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/packet"
)

// assemblyFixture is a group one churn batch past its bootstrap: rm1
// keyed everyone, rm2 is the message the schedules below deliver.
// Members are rebuilt from their registration credentials and rm1 for
// every schedule, so each starts where a live member would.
type assemblyFixture struct {
	s        *Server
	rm1, rm2 *RekeyMessage
	creds    map[MemberID]Credentials // as registered, before rm2
	signed   bool
}

func newAssemblyFixture(t testing.TB, seed uint64, k, n int, signed bool) *assemblyFixture {
	t.Helper()
	tun := DefaultTuning()
	tun.K = k
	opts := []Option{WithKeySeed(seed), WithTuning(tun)}
	if signed {
		signer, err := keys.NewSigner(1024)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithSigner(signer))
	}
	s, err := NewServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	f := &assemblyFixture{s: s, creds: make(map[MemberID]Credentials), signed: signed}
	for i := 0; i < n; i++ {
		if err := s.QueueJoin(MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.rm1, err = s.Rekey(); err != nil {
		t.Fatal(err)
	}
	// A quarter leaves: every survivor needs new keys, over several blocks.
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			if err := s.QueueLeave(MemberID(i)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cred, ok := s.Credentials(MemberID(i))
		if !ok {
			t.Fatalf("no credentials for member %d", i)
		}
		f.creds[MemberID(i)] = cred
	}
	if f.rm2, err = s.Rekey(); err != nil {
		t.Fatal(err)
	}
	return f
}

// member returns member id as it stands after rm1, its FEC decodes
// counted in reg.
func (f *assemblyFixture) member(t testing.TB, id MemberID, reg *obs.Registry) *Member {
	t.Helper()
	m, err := NewMember(f.creds[id])
	if err != nil {
		t.Fatal(err)
	}
	if f.signed {
		m.SetVerifier(keys.NewRootVerifier(f.s.SignerPublic()))
	}
	m.SetObs(reg)
	wire, err := f.rm1.WireENC(f.rm1.Plan.UserPacket[f.creds[id].NodeID])
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Ingest(wire); err != nil || !res.Done {
		t.Fatalf("member %d: bootstrap packet: res=%+v err=%v", id, res, err)
	}
	return m
}

// datagram returns shard (block, seq) of rm2 as sent: ENC below k,
// parity from k on.
func (f *assemblyFixture) datagram(t testing.TB, block, seq int) []byte {
	t.Helper()
	k := f.rm2.Part.K
	var wire []byte
	var err error
	if seq < k {
		wire, err = f.rm2.WireENC(block*k + seq)
	} else {
		wire, err = f.rm2.AppendWireParity(nil, block, seq-k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// ownPacket returns the index of the rm2 packet that carries id's keys.
func (f *assemblyFixture) ownPacket(t testing.TB, id MemberID) int {
	t.Helper()
	cred, ok := f.s.Credentials(id)
	if !ok {
		t.Fatalf("no credentials for member %d", id)
	}
	pi, ok := f.rm2.Plan.UserPacket[cred.NodeID]
	if !ok {
		t.Fatalf("no packet for node %d", cred.NodeID)
	}
	return pi
}

// ids returns the surviving member IDs in order.
func (f *assemblyFixture) ids() []MemberID {
	ids := make([]MemberID, 0, len(f.creds))
	for id := range f.creds {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *Member) retainedShardBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.cur.blocks {
		for _, buf := range b.bufs {
			n += len(buf)
		}
	}
	for _, buf := range m.free {
		n += len(buf)
	}
	return n
}

func (m *Member) heldShards(block int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if block >= len(m.cur.blocks) {
		return 0
	}
	return len(m.cur.blocks[block].seqs)
}

type shardRef struct{ block, seq int }

// TestMemberAssemblySchedules feeds one real rekey message to a member
// under seeded loss, duplication and reordering across blocks, and
// holds the assembly to its contract: the member ends Done, holding
// the server's path keys, exactly when its packet or k distinct shards
// of its block arrived; otherwise its NACK asks k minus what it holds
// of every block in range; a block is decoded at most once; and every
// packet after completion is ErrStale, named by kind, block and seq.
func TestMemberAssemblySchedules(t *testing.T) {
	for _, signed := range []bool{false, true} {
		for _, k := range []int{1, 10} {
			n := 2000
			if k == 1 {
				n = 120
			}
			f := newAssemblyFixture(t, uint64(40+k), k, n, signed)
			blocks := f.rm2.Blocks()
			if k > 1 && blocks < 3 {
				t.Fatalf("k=%d: only %d blocks", k, blocks)
			}
			t.Run(fmt.Sprintf("signed=%v/k=%d", signed, k), func(t *testing.T) {
				for seed := uint64(0); seed < 60; seed++ {
					f.runSchedule(t, seed)
				}
			})
		}
	}
}

func (f *assemblyFixture) runSchedule(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	k, blocks := f.rm2.Part.K, f.rm2.Blocks()
	ids := f.ids()
	id := ids[rng.IntN(len(ids))]
	reg := obs.New()
	m := f.member(t, id, reg)
	own := f.ownPacket(t, id)
	ownBlock, _ := f.rm2.Part.Slot(own)

	// The schedule: every data shard and 2k parity shards of every
	// block, each lost with the schedule's own probability, some sent
	// twice, shuffled across blocks. Some schedules lose every copy of
	// the member's packet, so FEC has to do the work.
	loss := []float64{0, 0.2, 0.5, 0.8}[rng.IntN(4)]
	loseOwn := rng.IntN(2) == 0
	var sched []shardRef
	for b := 0; b < blocks; b++ {
		for seq := 0; seq < 3*k; seq++ {
			isOwn := seq < k && f.rm2.Part.RealIndex(b, seq) == own
			if rng.Float64() < loss || (isOwn && loseOwn) {
				continue
			}
			sched = append(sched, shardRef{b, seq})
			if rng.IntN(5) == 0 {
				sched = append(sched, shardRef{b, seq})
			}
		}
	}
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })

	distinct := make([]map[int]bool, blocks)
	for b := range distinct {
		distinct[b] = make(map[int]bool)
	}
	wantDone := false
	for i, ref := range sched {
		wire := f.datagram(t, ref.block, ref.seq)
		kind := packet.TypeENC
		if ref.seq >= k {
			kind = packet.TypePARITY
		}
		wasDone := wantDone
		res, err := m.Ingest(wire)
		if wasDone {
			if !errors.Is(err, ErrStale) || res.Kind != kind || res.Block != ref.block || res.Seq != ref.seq || res.MsgID != f.rm2.MsgID || res.Done {
				t.Fatalf("seed %d arrival %d: after completion got res=%+v err=%v, want ErrStale for %v (%d,%d)", seed, i, res, err, kind, ref.block, ref.seq)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d arrival %d (%d,%d): %v", seed, i, ref.block, ref.seq, err)
		}
		distinct[ref.block][ref.seq] = true
		isOwn := ref.seq < k && f.rm2.Part.RealIndex(ref.block, ref.seq) == own
		wantDone = isOwn || len(distinct[ownBlock]) >= k
		if res.Done != wantDone || res.Recovered != (wantDone && !isOwn) {
			t.Fatalf("seed %d arrival %d (%d,%d): res=%+v, want Done=%v (own=%v, %d distinct shards of own block %d)",
				seed, i, ref.block, ref.seq, res, wantDone, isOwn, len(distinct[ownBlock]), ownBlock)
		}
	}

	// A block's k shards reach the coder once. (A decode that finds all
	// k data shards in place solves nothing and is not counted: at most,
	// then.)
	full := 0
	for b := range distinct {
		if len(distinct[b]) >= k {
			full++
		}
	}
	if decodes := reg.CounterValue(obs.CDecodeCacheHit) + reg.CounterValue(obs.CDecodeCacheMiss); decodes > int64(full) {
		t.Fatalf("seed %d: %d decodes for %d blocks that reached k shards", seed, decodes, full)
	}

	if wantDone {
		if !m.Done() {
			t.Fatalf("seed %d: member not done", seed)
		}
		want, ok := f.s.PathKeys(id)
		have := m.Keys()
		if !ok {
			t.Fatalf("seed %d: no path keys for member %d", seed, id)
		}
		for node, key := range want {
			if h, ok := have[node]; !ok || !h.Equal(key) {
				t.Fatalf("seed %d: member %d does not hold the server's key of node %d", seed, id, node)
			}
		}
		if _, ok := m.NACK(); ok {
			t.Fatalf("seed %d: completed member NACKs", seed)
		}
		return
	}
	nack, ok := m.NACK()
	if len(sched) == 0 {
		if ok {
			t.Fatalf("seed %d: member that saw nothing NACKs", seed)
		}
		return
	}
	if m.Done() {
		t.Fatalf("seed %d: member done without its packet or k shards of block %d", seed, ownBlock)
	}
	if !ok {
		t.Fatalf("seed %d: pending member has no NACK", seed)
	}
	lo, hi := m.cur.est.Low, m.cur.est.High
	if ownBlock < lo || ownBlock > hi {
		t.Fatalf("seed %d: own block %d outside the estimated range [%d,%d]", seed, ownBlock, lo, hi)
	}
	asked := make(map[int]int)
	for _, r := range nack.Requests {
		asked[int(r.BlockID)] = int(r.Count)
	}
	if nack.MsgID != f.rm2.MsgID || asked[ownBlock] != k-len(distinct[ownBlock]) {
		t.Fatalf("seed %d: NACK %+v, want %d of own block %d", seed, nack, k-len(distinct[ownBlock]), ownBlock)
	}
	for b, count := range asked {
		held := 0
		if b < blocks {
			held = min(k, len(distinct[b]))
		}
		if b < lo || b > hi || count != k-held {
			t.Fatalf("seed %d: NACK asks %d of block %d (range [%d,%d], %d held)", seed, count, b, lo, hi, held)
		}
	}
	for b := lo; b <= min(hi, blocks-1); b++ {
		if held := min(k, len(distinct[b])); held < k && asked[b] == 0 {
			t.Fatalf("seed %d: NACK leaves out block %d in range [%d,%d], %d held", seed, b, lo, hi, held)
		}
	}
}

// TestIngestAllocs pins what the receive path may allocate: nothing for
// a packet of a completed message, signed or not; nothing for another
// member's ENC packet once the shard buffers of earlier messages are
// there to reuse; for the member's own ENC packet, one AES key
// schedule per key it unwraps and nothing else; and for a recovery, a
// count that does not grow with k, plus only the kept leaf scratch for
// checking the decoded block against its signed root.
func TestIngestAllocs(t *testing.T) {
	var unsignedRecovery float64
	for _, signed := range []bool{false, true} {
		f := newAssemblyFixture(t, 61, 10, 1000, signed)
		id := f.ids()[0]
		if !signed {
			// AllocsPerRun runs once unmeasured, then once per member left.
			ids := f.ids()[:41]
			members, wires := make([]*Member, len(ids)), make([][]byte, len(ids))
			unwraps := 0
			for i, mid := range ids {
				members[i] = f.member(t, mid, nil)
				own := f.ownPacket(t, mid)
				wires[i] = f.datagram(t, own/f.rm2.Part.K, own%f.rm2.Part.K)
				if i > 0 {
					cred, _ := f.s.Credentials(mid)
					unwraps += len(f.rm2.Result.UserNeeds(cred.NodeID))
				}
			}
			// Without the AES-NI kernel (other CPUs and GOARCHes, -tags
			// purego) each unwrap builds one crypto/aes key schedule.
			schedules := 0
			if keys.AESKernel() == "generic" {
				schedules = unwraps / (len(ids) - 1)
			}
			i := 0
			if allocs := testing.AllocsPerRun(len(ids)-1, func() {
				if res, err := members[i].Ingest(wires[i]); err != nil || !res.Done {
					t.Fatalf("own ENC of member %d: res=%+v err=%v", ids[i], res, err)
				}
				i++
			}); allocs != float64(schedules) {
				t.Errorf("own ENC: %.1f allocs per ingest, want %d (AES kernel %s)", allocs, schedules, keys.AESKernel())
			}
		}
		{
			// Recovery: each member holds its own block's data shards but
			// its own, and a parity shard completes the block. Both
			// fixtures have the same tree, plan and blocks, so a verifying
			// member's recovery may cost only the k leaf hashes its first
			// check of a decoded block's root keeps for every later one:
			// the check itself allocates nothing. A member whose keys
			// another packet of its block also carries is done before the
			// parity; it is left out.
			k := f.rm2.Part.K
			var ids []MemberID
			var members []*Member
			var parities [][]byte
		candidates:
			for _, mid := range f.ids()[1:] {
				if len(ids) == 41 {
					break
				}
				m := f.member(t, mid, nil)
				b, ownSeq := f.rm2.Part.Slot(f.ownPacket(t, mid))
				for seq := 0; seq < k; seq++ {
					if seq == ownSeq {
						continue
					}
					res, err := m.Ingest(f.datagram(t, b, seq))
					if err != nil {
						t.Fatalf("member %d, shard %d of block %d: %v", mid, seq, b, err)
					}
					if res.Done {
						continue candidates
					}
				}
				ids, members, parities = append(ids, mid), append(members, m), append(parities, f.datagram(t, b, k))
			}
			if len(ids) < 41 {
				t.Fatalf("%d members to recover, want 41", len(ids))
			}
			// The first decode's scratch (shards, packets, spans and one
			// slab under the packets), the coder's decode (three), the
			// parity's shard buffer and the free list's one growth when
			// the finished message releases its shards; without the
			// AES-NI kernel, one key schedule per unwrap besides.
			want := 10.0
			if keys.AESKernel() == "generic" {
				unwraps := 0
				for _, mid := range ids[1:] {
					cred, _ := f.s.Credentials(mid)
					unwraps += len(f.rm2.Result.UserNeeds(cred.NodeID))
				}
				want += float64(unwraps / (len(ids) - 1))
			}
			i := 0
			allocs := testing.AllocsPerRun(len(ids)-1, func() {
				if res, err := members[i].Ingest(parities[i]); err != nil || !res.Done || !res.Recovered {
					t.Fatalf("parity completing member %d's block: res=%+v err=%v", ids[i], res, err)
				}
				i++
			})
			if !signed {
				unsignedRecovery = allocs
				if allocs != want {
					t.Errorf("recovering ingest: %.1f allocs, want %.1f (AES kernel %s)", allocs, want, keys.AESKernel())
				}
			} else if allocs != unsignedRecovery+1 {
				t.Errorf("signed recovering ingest: %.1f allocs, want %.1f, the unsigned one's and the leaf scratch",
					allocs, unsignedRecovery+1)
			}
		}
		m := f.member(t, id, nil)
		own := f.ownPacket(t, id)
		ownBlock, ownSeq := f.rm2.Part.Slot(own)
		other := f.datagram(t, (ownBlock+1)%f.rm2.Blocks(), 0)
		// Some rm1 packet that is not the member's: another message's,
		// which is all it is here for.
		notOwn := 0
		if f.rm1.Plan.UserPacket[f.creds[id].NodeID] == 0 {
			notOwn = 1
		}
		otherOld, err := f.rm1.WireENC(notOwn)
		if err != nil {
			t.Fatal(err)
		}

		if !signed {
			// Alternating messages: each ingest resets the assembly and
			// stores one shard, in a buffer the last one gave back.
			wires := [2][]byte{other, otherOld}
			i := 0
			if allocs := testing.AllocsPerRun(200, func() {
				if res, err := m.Ingest(wires[i%2]); err != nil || res.Duplicate {
					t.Fatalf("other member's ENC: res=%+v err=%v", res, err)
				}
				i++
			}); allocs != 0 {
				t.Errorf("other member's ENC, steady state: %.1f allocs per ingest, want 0", allocs)
			}
		}

		if res, err := m.Ingest(f.datagram(t, ownBlock, ownSeq)); err != nil || !res.Done {
			t.Fatalf("signed=%v: own packet: res=%+v err=%v", signed, res, err)
		}
		parity := f.datagram(t, ownBlock, 10)
		for name, wire := range map[string][]byte{"ENC": other, "PARITY": parity} {
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := m.Ingest(wire); !errors.Is(err, ErrStale) {
					t.Fatalf("err = %v, want ErrStale", err)
				}
			}); allocs != 0 {
				t.Errorf("signed=%v: stale %s: %.1f allocs per ingest, want 0", signed, name, allocs)
			}
		}
	}
}

// junkParity is a well-formed PARITY packet of noise.
func junkParity(rng *rand.Rand, msgID uint8, block, seq int) []byte {
	b := make([]byte, packet.PacketLen)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	b[0], b[1], b[2] = byte(packet.TypePARITY)<<6|msgID, byte(block), byte(seq)
	return b
}

// TestHostileSenderCannotExhaustMember: NACKs aside, nothing a member
// receives is authenticated unless it verifies, so anyone can send it
// well-formed shards of the current message. However many arrive, a
// block holds k; and what junk decodes to is dropped, so the member
// still keys from its own packet, or from honest shards of its block.
func TestHostileSenderCannotExhaustMember(t *testing.T) {
	f := newAssemblyFixture(t, 62, 10, 1000, false)
	k := f.rm2.Part.K
	bound := 256 * k * packet.ParityPayloadLen
	spray := func(t *testing.T, m *Member) {
		rng := rand.New(rand.NewPCG(62, 1))
		for block := 0; block < 256; block++ {
			for seq := k; seq < 256; seq++ {
				if res, err := m.Ingest(junkParity(rng, f.rm2.MsgID, block, seq)); err != nil || res.Done {
					t.Fatalf("junk (%d,%d): res=%+v err=%v", block, seq, res, err)
				}
				if got := m.retainedShardBytes(); got > bound {
					t.Fatalf("after junk (%d,%d) the member holds %d shard bytes, bound %d", block, seq, got, bound)
				}
			}
		}
	}
	id := f.ids()[0]

	t.Run("own packet", func(t *testing.T) {
		m := f.member(t, id, nil)
		spray(t, m)
		own := f.ownPacket(t, id)
		wire, err := f.rm2.WireENC(own)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := m.Ingest(wire); err != nil || !res.Done {
			t.Fatalf("own packet after the spray: res=%+v err=%v", res, err)
		}
		if gk, ok := m.GroupKey(); !ok || gk != f.s.GroupKey() {
			t.Fatal("wrong group key")
		}
	})

	t.Run("honest shards", func(t *testing.T) {
		m := f.member(t, id, nil)
		spray(t, m)
		own := f.ownPacket(t, id)
		ownBlock, _ := f.rm2.Part.Slot(own)
		// The spray left the block part-filled with junk, which the first
		// honest shards complete into one more block of noise; from there
		// on the block is the honest sender's, and k of its shards decode.
		var last IngestResult
		fed := 0
		for idx := 0; !last.Done && idx < 2*k; idx++ {
			var err error
			if last, err = m.Ingest(f.datagram(t, ownBlock, k+idx)); err != nil {
				t.Fatal(err)
			}
			fed++
		}
		if !last.Done || !last.Recovered || fed > 2*k-1 {
			t.Fatalf("after %d honest parity shards: %+v", fed, last)
		}
		if gk, ok := m.GroupKey(); !ok || gk != f.s.GroupKey() {
			t.Fatal("wrong group key")
		}
	})
}

// TestUnverifiedPacketLeavesNoTrace: on a verifying member a packet
// whose proof does not check starts no assembly, moves no estimator
// bound, records no block root and stores no shard.
func TestUnverifiedPacketLeavesNoTrace(t *testing.T) {
	f := newAssemblyFixture(t, 63, 10, 1000, true)
	id := f.ids()[0]
	m := f.member(t, id, nil)
	ownBlock, _ := f.rm2.Part.Slot(f.ownPacket(t, id))
	other := (ownBlock + 1) % f.rm2.Blocks()

	tamper := func(wire []byte, at int) []byte {
		bad := append([]byte(nil), wire...)
		bad[at] ^= 0x01
		return bad
	}
	// The aux root follows the trailer's 14 fixed bytes and its top proof.
	_, tr, err := packet.SplitAuth(f.datagram(t, other, 10))
	if err != nil {
		t.Fatal(err)
	}
	auxAt := packet.PacketLen + 14 + len(tr.TopProof)*keys.HashSize
	forged := map[string][]byte{
		// FrmID is what the estimator would read, the payload what the
		// block would store, the aux root what a decode would be held to.
		"ENC header":     tamper(f.datagram(t, other, 1), 7),
		"ENC payload":    tamper(f.datagram(t, other, 2), 500),
		"PARITY auxroot": tamper(f.datagram(t, other, 10), auxAt+5),
	}
	reject := func(when string) {
		t.Helper()
		for name, wire := range forged {
			if _, err := m.Ingest(wire); !errors.Is(err, ErrBadPacket) {
				t.Fatalf("%s, forged %s: err = %v, want ErrBadPacket", when, name, err)
			}
		}
	}

	reject("idle")
	if !m.Done() {
		t.Fatal("a rejected packet started an assembly")
	}
	if res, err := m.Ingest(f.datagram(t, other, 0)); err != nil || res.Duplicate || res.Done {
		t.Fatalf("honest ENC: res=%+v err=%v", res, err)
	}
	est, blocks, held := m.cur.est, len(m.cur.blocks), m.heldShards(other)
	reject("assembling")
	if m.cur.est != est || len(m.cur.blocks) != blocks || m.heldShards(other) != held || held != 1 {
		t.Fatalf("rejected packets left a trace: est %+v -> %+v, blocks %d -> %d, held %d -> %d",
			est, m.cur.est, blocks, len(m.cur.blocks), held, m.heldShards(other))
	}
}
