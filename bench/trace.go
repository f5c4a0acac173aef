package main

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	rekey "repro"
	"repro/internal/assign"
	"repro/internal/fec"
	"repro/internal/keys"
	"repro/internal/keytree"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Stage names. The left side is the span name the benchmark records;
// README.md maps each to the obs metric that measures the same work
// inside the program, which is the vocabulary ROADMAP item 5 reuses.
const (
	stInterval    = "interval"
	stQueue       = "rekey.Queue"
	stRekey       = "rekey.Rekey"
	stTree        = "keytree.ProcessBatch"
	stAssign      = "assign.Build"
	stMaterialize = "assign.Materialize"
	stMarshal     = "packet.MarshalENC"
	stMerkle      = "keys.MerkleBuild"
	stSign        = "keys.SignRoot"
	stParity      = "rekey.PrecomputeParity"
	stEncode      = "protocol.EncodeBlocks"
	stWire        = "rekey.WireMaterialize"
	stWireUSR     = "rekey.WireUSR"
	stDistribute  = "udptrans.Distribute"
	stNACKWait    = "udptrans.NACKWait"
	stIngest      = "member.Ingest"
)

// span is one timed call into a layer. Cause is the ID of the span that
// caused it (0 for an interval's root span); spans of one interval
// share Interval. Start and End are nanoseconds since the run began.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Cause    int    `json:"cause"`
	Interval int    `json:"interval"`
	Tag      string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays a nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, cause, interval int, tag string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Cause: cause, Interval: interval, Tag: tag,
	})
	return id
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name       string  `json:"name"`
	Spans      int     `json:"spans"`
	TotalMs    float64 `json:"total_ms"`
	SelfMs     float64 `json:"self_ms"`
	ShareOfInt float64 `json:"share_of_interval"`
}

// selfTimes computes each stage's self time: a span's duration minus
// the durations of the spans it caused, clamped at zero (replayed
// children repeat their parent's work after the fact, so they nest by
// cause, not by clock). Shares are of the summed interval spans.
func (t *tracer) selfTimes() []selfRow {
	child := make(map[int]int64)
	for _, s := range t.spans {
		child[s.Cause] += s.End - s.Start
	}
	rows := make(map[string]*selfRow)
	var intervalNs int64
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Name == stInterval {
			intervalNs += d
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Spans++
		r.TotalMs += float64(d) / 1e6
		if self := d - child[s.ID]; self > 0 {
			r.SelfMs += float64(self) / 1e6
		}
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		r.ShareOfInt = ratio(r.SelfMs, float64(intervalNs)/1e6)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Host     hostInfo `json:"host"`
	// The per-layer durations are multiplied by HostSpeed; the self-time
	// table and the spans are as the clock read them.
	HostSpeed float64           `json:"host_speed"`
	Layers    map[string]metric `json:"per_layer"`
	SelfTime  []selfRow         `json:"self_time"`
	Spans     []span            `json:"spans"`
}

func (t *tracer) write(dir string, res *result, host hostInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, res.Workload+".trace.json")
	data, err := json.Marshal(traceFile{
		Workload: res.Workload, Seed: res.Seed, Host: host, HostSpeed: res.HostSpeed,
		Layers: res.Layer, SelfTime: res.SelfTime, Spans: t.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// layerRec accumulates per-layer observations: samples are averaged,
// counts are summed and turned into shares at the end.
type layerRec struct {
	samples map[string][]float64
	counts  map[string]float64
}

func newLayerRec() *layerRec {
	return &layerRec{samples: map[string][]float64{}, counts: map[string]float64{}}
}

func (l *layerRec) add(name string, v float64) {
	if l != nil {
		l.samples[name] = append(l.samples[name], v)
	}
}

func (l *layerRec) count(name string, v float64) {
	if l != nil {
		l.counts[name] += v
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// metrics renders every per-layer metric; one with no observation on
// this workload reads 0 (the layer did no work here). Durations are
// multiplied by the run's host speed, as the end-to-end ones are.
func (l *layerRec) metrics(hostSpeed float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	share := func(hit, total string) float64 { return ratio(l.counts[hit], l.counts[total]) }
	for _, d := range perLayer {
		xs := l.samples[d.name]
		m := metric{Value: stats.Mean(xs), Unit: d.unit, Samples: len(xs)}
		switch d.name {
		case "rekey.rekey_ms_p95":
			m.Value = percentile(xs, 95)
		case "udptrans.client.time_to_key_ms_p50":
			m.Value = median(xs)
		case "keys.wrap_ns_per_op":
			m.Value = share("wrap_ns", "wraps")
		case "keys.root_verify_cached_share":
			m.Value = share("root_cached", "root_checks")
		case "fec.parity_cache_hit_share":
			m.Value = share("parity_hit", "parity_lookups")
		case "fec.decode_cache_hit_share":
			m.Value = share("decode_hit", "decode_lookups")
		case "protocol.sendbuf_reuse_share":
			m.Value = share("sendbuf_reuse", "sendbuf_gets")
		case "udptrans.usr_useful_share":
			m.Value = share("usr_useful", "usr_seen")
		case "member.useful_share":
			m.Value = share("ingest_useful", "ingests")
		case "member.recovered_share":
			m.Value = share("done_recovered", "done")
		case "member.allocs_per_ingest":
			m.Value = share("ingest_allocs", "ingests")
		case "netsim.injected_loss_share":
			m.Value = share("injected_drops", "rx_datagrams")
		case "udptrans.kernel_rcvbuf_drops":
			m.Value = l.counts["kernel_drops"]
		case "harness.host_speed":
			m.Value = hostSpeed
		}
		out[d.name] = m
	}
	for _, d := range extraLayer {
		if xs := l.samples[d.name]; len(xs) > 0 {
			out[d.name] = metric{Value: stats.Mean(xs), Unit: d.unit, Samples: len(xs)}
		}
	}
	for name, m := range out {
		if m.Unit == "ms" || m.Unit == "us" || m.Unit == "ns" {
			m.Value *= hostSpeed
			out[name] = m
		}
	}
	return out
}

// replayer repeats, after the fact and on the message's own exported
// outputs, the stages Server.Rekey ran inside one call, so that each
// gets a span of its own without touching the program. The mirror tree
// sees the same batches as the server's and must end on the same key.
type replayer struct {
	signer *keys.Signer
	mirror *keytree.Tree
	coder  *fec.Coder
	creg   *obs.Registry // the replay coder's decode-cache counters
	out    [][]byte      // DecodeInto scratch
}

func newReplayer(s *spec, seed uint64, signer *keys.Signer) (*replayer, error) {
	k := s.tuning().K
	coder, err := fec.NewCoder(k, fec.MaxShards-k)
	if err != nil {
		return nil, err
	}
	creg := obs.New()
	coder.SetObs(creg)
	strat, err := keytree.NewStrategy(s.tuning().Strategy)
	if err != nil {
		return nil, err
	}
	return &replayer{
		signer: signer, coder: coder, creg: creg, out: make([][]byte, k),
		mirror: keytree.New(s.tuning().Degree, keys.NewDeterministicGenerator(keySeed(seed)),
			keytree.WithStrategy(strat)),
	}, nil
}

// batch runs the interval's batch on the mirror tree and checks it
// against the server.
func (rp *replayer) batch(rec *recorder, idx, cause int, plan churnPlan, ks *rekey.Server) time.Duration {
	_, o0 := heapAllocs()
	t0 := time.Now()
	res, err := rp.mirror.ProcessBatch(plan.joins, plan.leaves)
	t1 := time.Now()
	_, o1 := heapAllocs()
	if err != nil {
		rec.violate("interval %d: mirror tree: %v", idx, err)
		return 0
	}
	if !rp.mirror.GroupKey().Equal(ks.GroupKey()) {
		rec.violate("interval %d: mirror tree key differs from the server's", idx)
	}
	rec.tr.add(stTree, t0, t1, cause, idx, "")
	rec.layer.add("keytree.batch_ms", ms(t1.Sub(t0)))
	rec.layer.add("keytree.allocs_per_batch", float64(o1-o0))
	rec.layer.add("keytree.encryptions", float64(len(res.Encryptions)))
	return t1.Sub(t0)
}

// rekey replays assignment, materialisation, marshalling and (on a
// signed message) the Merkle build and root signature, each checked
// against what the message really carries, and reports Rekey's own
// remainder as rekey.self_ms. treeDur is the mirror tree's batch time:
// its span has the same cause, so it counts against Rekey too.
func (rp *replayer) rekey(rec *recorder, idx, cause int, rm *rekey.RekeyMessage, rekeyDur, treeDur time.Duration) {
	k := rm.Part.K
	replayed := treeDur
	stage := func(name string, t0 time.Time) time.Duration {
		t1 := time.Now()
		rec.tr.add(name, t0, t1, cause, idx, "")
		replayed += t1.Sub(t0)
		return t1.Sub(t0)
	}

	t := time.Now()
	plan, err := assign.Build(rm.Result)
	if err != nil {
		rec.violate("interval %d: replay assign.Build: %v", idx, err)
		return
	}
	rec.layer.add("assign.build_ms", ms(stage(stAssign, t)))
	rec.layer.add("assign.packets", float64(len(plan.Packets)))
	rec.layer.add("assign.dup_overhead", plan.DuplicationOverhead())
	rec.layer.add("blockplan.blocks", float64(rm.Part.NumBlocks()))
	rec.layer.add("blockplan.pad_share", ratio(float64(rm.Part.Duplicates()), float64(rm.Part.TotalSlots())))

	t = time.Now()
	encs, err := assign.Materialize(plan, rm.Result, rm.MsgID, k)
	if err != nil {
		rec.violate("interval %d: replay assign.Materialize: %v", idx, err)
		return
	}
	rec.layer.add("assign.materialize_ms", ms(stage(stMaterialize, t)))

	t = time.Now()
	raws := make([][]byte, len(encs))
	for i, enc := range encs {
		if raws[i], err = enc.Marshal(); err != nil {
			rec.violate("interval %d: replay ENC.Marshal: %v", idx, err)
			return
		}
	}
	rec.layer.add("packet.marshal_enc_us", us(stage(stMarshal, t))/float64(len(encs)))

	// Parsing is the members' side of the same format; timed here beside
	// its inverse, outside Rekey's budget.
	t = time.Now()
	for _, raw := range raws {
		if _, err := packet.ParseENC(raw); err != nil {
			rec.violate("interval %d: ParseENC of a marshalled packet: %v", idx, err)
		}
	}
	rec.layer.add("packet.parse_enc_us", us(time.Since(t))/float64(len(raws)))

	trailer := 0
	for i, raw := range raws {
		wire, err := rm.WireENC(i)
		if err != nil || len(wire) < packet.PacketLen || !bytes.Equal(wire[:packet.PacketLen], raw) {
			rec.violate("interval %d: replayed ENC %d differs from the message's datagram", idx, i)
			break
		}
		trailer += len(wire) - packet.PacketLen
	}
	rec.layer.add("packet.auth_trailer_bytes", float64(trailer)/float64(len(raws)))

	if rm.Authenticated() {
		t = time.Now()
		leaves := make([]keys.MerkleHash, len(raws))
		for i, raw := range raws {
			leaves[i] = keys.LeafHash(keys.DomainENC, raw)
		}
		top := make([]keys.MerkleHash, 0, rm.Blocks()+1)
		for b := 0; b < rm.Blocks(); b++ {
			top = append(top, keys.NewMerkleTree(leaves[b*k:(b+1)*k]).Root())
		}
		usrLeaves := make([]keys.MerkleHash, len(rm.Result.UserIDs))
		for i, uid := range rm.Result.UserIDs {
			usr, err := rm.USRFor(uid)
			if err != nil {
				rec.violate("interval %d: replay USRFor(%d): %v", idx, uid, err)
				return
			}
			raw, err := usr.Marshal()
			if err != nil {
				rec.violate("interval %d: replay USR.Marshal(%d): %v", idx, uid, err)
				return
			}
			usrLeaves[i] = keys.LeafHash(keys.DomainUSR, raw)
		}
		top = append(top, keys.NewMerkleTree(usrLeaves).Root())
		root := keys.NewMerkleTree(top).Root()
		rec.layer.add("keys.merkle_build_ms", ms(stage(stMerkle, t)))

		t = time.Now()
		if _, err := rp.signer.SignRoot(root); err != nil {
			rec.violate("interval %d: replay SignRoot: %v", idx, err)
		}
		rec.layer.add("keys.sign_root_ms", ms(stage(stSign, t)))

		// The replayed root must be the one the message signed, or the
		// replay measures some other tree.
		wire, _ := rm.WireENC(0)
		if _, tr, err := packet.SplitAuth(wire); err != nil {
			rec.violate("interval %d: ENC 0 carries no auth trailer: %v", idx, err)
		} else if err := keys.VerifyRoot(rp.signer.Public(), root, tr.Sig); err != nil {
			rec.violate("interval %d: replayed Merkle root is not the signed one: %v", idx, err)
		}
	}
	rec.layer.add("rekey.self_ms", ms(max(0, rekeyDur-replayed)))
	rec.layer.add("rekey.replayed_ms", ms(replayed))
}

// parity replays the interval's FEC work on the message's own ENC
// datagrams: counts[b] parity packets for block b, through the worker
// pool and serially, then one decode per block with two data shards
// erased. Blocks that sent no parity are skipped: on a loss-free
// interval at rho=1 the FEC layer did nothing and reports nothing.
func (rp *replayer) parity(ctx context.Context, rec *recorder, idx, cause int, rm *rekey.RekeyMessage, counts []int) {
	k := rm.Part.K
	var reqs []protocol.BlockParity
	total := 0
	for b, n := range counts {
		if n <= 0 || b >= rm.Blocks() {
			continue
		}
		data := make([][]byte, k)
		for s := 0; s < k; s++ {
			wire, err := rm.WireENC(b*k + s)
			if err != nil {
				rec.violate("interval %d: WireENC(%d): %v", idx, b*k+s, err)
				return
			}
			data[s] = wire[packet.FECOffset:packet.PacketLen]
		}
		reqs = append(reqs, protocol.BlockParity{Data: data, N: n})
		total += n
	}
	if len(reqs) == 0 {
		return
	}
	// Serial first: it also warms the coder, so the pooled run and its
	// one-worker twin below start from the same state.
	t := time.Now()
	for _, rq := range reqs {
		if _, err := rp.coder.EncodeAll(rq.Data, 0, rq.N); err != nil {
			rec.violate("interval %d: replay EncodeAll: %v", idx, err)
			return
		}
	}
	rec.layer.add("fec.encode_us_per_parity", us(time.Since(t))/float64(total))

	t0 := time.Now()
	outs, err := protocol.EncodeBlocks(ctx, rp.coder, reqs, 0)
	t1 := time.Now()
	if err != nil {
		rec.violate("interval %d: replay EncodeBlocks: %v", idx, err)
		return
	}
	rec.tr.add(stEncode, t0, t1, cause, idx, "")
	rec.layer.add("protocol.encode_blocks_ms", ms(t1.Sub(t0)))
	if runtime.GOMAXPROCS(0) > 1 {
		// With a single processor the ratio would say nothing, so it is
		// omitted.
		t := time.Now()
		if _, err := protocol.EncodeBlocks(ctx, rp.coder, reqs, 1); err == nil {
			rec.layer.add("protocol.encode_blocks_speedup", ratio(float64(time.Since(t)), float64(t1.Sub(t0))))
		}
	}

	h0, m0 := rp.creg.CounterValue(obs.CDecodeCacheHit), rp.creg.CounterValue(obs.CDecodeCacheMiss)
	var decode time.Duration
	decoded := 0
	for i, rq := range reqs {
		lost := min(2, rq.N, k)
		shards := make([]fec.Shard, 0, k)
		for s := lost; s < k; s++ {
			shards = append(shards, fec.Shard{Index: s, Data: rq.Data[s]})
		}
		for p := 0; p < lost; p++ {
			shards = append(shards, fec.Shard{Index: k + p, Data: outs[i][p]})
		}
		t := time.Now()
		err := rp.coder.DecodeInto(rp.out, shards)
		decode += time.Since(t)
		if err != nil || subtle.ConstantTimeCompare(rp.out[0], rq.Data[0]) != 1 {
			rec.violate("interval %d: replayed decode of block %d did not restore the data", idx, i)
			return
		}
		decoded++
	}
	rec.layer.add("fec.decode_us_per_block", us(decode)/float64(decoded))
	h1, m1 := rp.creg.CounterValue(obs.CDecodeCacheHit), rp.creg.CounterValue(obs.CDecodeCacheMiss)
	rec.layer.count("decode_hit", float64(h1-h0))
	rec.layer.count("decode_lookups", float64(h1-h0+m1-m0))
}

// serverCounters folds the key server registry's counters of one
// interval into the per-layer record. prev is the snapshot taken when
// the previous interval ended.
func serverCounters(rec *recorder, reg *obs.Registry, prev obs.Snapshot) obs.Snapshot {
	cur := reg.Snapshot()
	d := func(name string) float64 { return float64(cur.Counters[name] - prev.Counters[name]) }
	rec.layer.add("keytree.keys_generated", d("keys_generated"))
	rec.layer.count("wrap_ns", d("wrap_ns"))
	rec.layer.count("wraps", d("wraps"))
	rec.layer.count("parity_hit", d("parity_cache_hit"))
	rec.layer.count("parity_lookups", d("parity_cache_hit")+d("parity_cache_miss"))
	rec.layer.count("sendbuf_reuse", d("sendbuf_reuse"))
	rec.layer.count("sendbuf_gets", d("sendbuf_reuse")+d("sendbuf_alloc"))
	return cur
}

// authCheck repeats, on a bench-owned verifier, the proof check a
// member makes on one authenticated datagram, timing the Merkle part
// and counting whether the RSA check of the root was served from the
// verifier's cache. It returns false when the datagram does not prove
// into the signed root.
func authCheck(rec *recorder, v *keys.RootVerifier, datagram []byte) bool {
	inner, tr, err := packet.SplitAuth(datagram)
	if err != nil || len(inner) < 3 {
		return false
	}
	t := time.Now()
	var root keys.MerkleHash
	ok := false
	switch tr.Kind {
	case packet.TypeENC:
		var blockRoot keys.MerkleHash
		if blockRoot, ok = keys.VerifyMerkleProof(keys.LeafHash(keys.DomainENC, inner), tr.LeafIndex, tr.NSub, tr.SubProof); ok {
			root, ok = keys.VerifyMerkleProof(blockRoot, int(inner[1]), tr.NTop, tr.TopProof)
		}
	case packet.TypePARITY:
		root, ok = keys.VerifyMerkleProof(tr.Aux, int(inner[1]), tr.NTop, tr.TopProof)
	case packet.TypeUSR:
		var usrRoot keys.MerkleHash
		if usrRoot, ok = keys.VerifyMerkleProof(keys.LeafHash(keys.DomainUSR, inner), tr.LeafIndex, tr.NSub, tr.SubProof); ok {
			root, ok = keys.VerifyMerkleProof(usrRoot, tr.NTop-1, tr.NTop, tr.TopProof)
		}
	}
	rec.layer.add("keys.proof_verify_us", us(time.Since(t)))
	if !ok {
		return false
	}
	cached, err := v.VerifyRoot(root, tr.Sig)
	if err != nil {
		return false
	}
	rec.layer.count("root_checks", 1)
	if cached {
		rec.layer.count("root_cached", 1)
	}
	return true
}

// ingestClass names the member.ingest_us.* bucket of one Ingest.
func ingestClass(res rekey.IngestResult, err error) string {
	switch {
	case errors.Is(err, rekey.ErrStale):
		return "stale"
	case res.Kind == packet.TypePARITY:
		return "parity"
	case res.Kind == packet.TypeUSR:
		return "usr"
	case res.Done && !res.Recovered:
		return "enc_own"
	default:
		return "enc_other"
	}
}

// ingestMetric spells the names out so that recording an ingest does
// not allocate inside the loop whose allocations are being counted.
var ingestMetric = map[string]string{
	"stale":     "member.ingest_us.stale",
	"parity":    "member.ingest_us.parity",
	"usr":       "member.ingest_us.usr",
	"enc_own":   "member.ingest_us.enc_own",
	"enc_other": "member.ingest_us.enc_other",
}

// timedIngest feeds one datagram to a member and records the call as a
// span and a per-class duration.
func timedIngest(rec *recorder, m *rekey.Member, datagram []byte, idx, cause int) (rekey.IngestResult, time.Duration, error) {
	t0 := time.Now()
	res, err := m.Ingest(datagram)
	t1 := time.Now()
	class := ingestClass(res, err)
	rec.tr.add(stIngest, t0, t1, cause, idx, class)
	rec.layer.add(ingestMetric[class], us(t1.Sub(t0)))
	rec.layer.count("ingests", 1)
	if err == nil && !res.Duplicate {
		rec.layer.count("ingest_useful", 1)
	}
	if res.Done {
		rec.layer.count("done", 1)
		if res.Recovered {
			rec.layer.count("done_recovered", 1)
		}
	}
	return res, t1.Sub(t0), err
}

func printSelfTimes(rows []selfRow) {
	fmt.Printf("  %-28s %8s %12s %12s %8s\n", "stage (self time)", "spans", "total ms", "self ms", "share")
	for _, r := range rows {
		fmt.Printf("  %-28s %8d %12.2f %12.2f %7.1f%%\n", r.Name, r.Spans, r.TotalMs, r.SelfMs, 100*r.ShareOfInt)
	}
}
