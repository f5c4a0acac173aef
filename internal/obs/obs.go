// Package obs is the rekey pipeline's observability layer: a
// lightweight, allocation-conscious metrics and event-trace subsystem.
//
// A Registry holds a fixed set of atomic counters, gauges and bounded
// histograms (identified by compile-time IDs, so the hot path touches a
// fixed-size array slot -- no map lookups, no allocation) plus a
// ring-buffer trace of typed protocol events (RoundStart, NACKReceived,
// RhoAdjusted, SwitchToUnicast, MemberDone, ...). One registry is
// threaded through the key server, the transport protocol engine and
// the UDP transport; the daemons expose it over HTTP (see http.go).
//
// Every method is safe on a nil *Registry and does nothing, so
// uninstrumented paths -- the simulation harness, benchmarks -- pay
// only a nil check. Callers doing extra work purely to feed the
// registry (timing a phase, say) should gate it on Enabled.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies a monotonically increasing counter.
type Counter int

// Counters. Server-side (key server + transport) first, then
// client-side; one registry usually populates only one side.
const (
	// CRekeys counts rekey messages built by the key server.
	CRekeys Counter = iota
	// CJoins and CLeaves count membership changes processed in batches.
	CJoins
	CLeaves
	// CEncSent, CParitySent and CUsrSent count multicast/unicast packets
	// the transport sent, by type (one per packet, not per receiver).
	CEncSent
	CParitySent
	CUsrSent
	// CSendCalls counts the system calls of the fan-out: a sendmmsg
	// carries up to 64 members' messages, each a run of datagrams, so
	// datagrams fanned out over send_calls is 1 where the kernel refuses
	// batches.
	CSendCalls
	// CNACKRecv counts NACK packets the server accepted (deduplicated
	// per user per round, matching udptrans.Stats).
	CNACKRecv
	// CNACKIgnored counts NACKs read inside a window and dropped: a
	// duplicate, one of another message, or garbled.
	CNACKIgnored
	// CNACKStale counts datagrams the transport discarded unread before
	// a NACK window opened: they arrived while the round they would be
	// taken as feedback on was still being sent.
	CNACKStale
	// CUnicastWaves counts USR retransmission waves run.
	CUnicastWaves
	// CKeysGenerated counts fresh keys the key server drew (individual
	// keys for placed users plus new k-node keys).
	CKeysGenerated
	// CWraps counts {k'}_k wrap operations the batch pipeline performed.
	CWraps
	// CWrapNs accumulates nanoseconds spent in the wrap-emission phase
	// of batch processing (the AES+HMAC-dominated server hot path).
	CWrapNs
	// Client side.
	// CEncRecv, CParityRecv and CUsrRecv count packets a member's
	// transport client received, by type.
	CEncRecv
	CParityRecv
	CUsrRecv
	// CRecvCalls counts the client's successful socket reads; a
	// coalesced read delivers several of the packets counted above.
	CRecvCalls
	// CNACKSent counts NACKs the client emitted at round boundaries.
	CNACKSent
	// CIngestStale counts packets for an already-completed message.
	CIngestStale
	// CIngestErrors counts malformed or misdirected packets.
	CIngestErrors
	// CFECRecoveries counts completions that needed FEC decoding.
	CFECRecoveries
	// CDecodeCacheMiss counts the decode matrices FEC decodes solve,
	// one per lossy block; CDecodeCacheHit is never counted, since no
	// coder caches a solve. Both stay only until ROADMAP 1 drops
	// fec.decode_cache_hit_share.
	CDecodeCacheHit
	CDecodeCacheMiss
	// Scenario harness side.
	// CScenarioSteps counts churn batches a scenario driver applied.
	CScenarioSteps
	// COracleChecks counts invariant-oracle batch verifications run;
	// COracleViolations counts checks that found a protocol invariant
	// broken (forward secrecy, key consistency or a recovery bound).
	COracleChecks
	COracleViolations

	numCounters
)

var counterNames = [numCounters]string{
	CRekeys:           "rekeys",
	CJoins:            "joins",
	CLeaves:           "leaves",
	CEncSent:          "enc_sent",
	CParitySent:       "parity_sent",
	CUsrSent:          "usr_sent",
	CSendCalls:        "send_calls",
	CNACKRecv:         "nack_recv",
	CNACKIgnored:      "nack_ignored",
	CNACKStale:        "nack_stale",
	CUnicastWaves:     "unicast_waves",
	CKeysGenerated:    "keys_generated",
	CWraps:            "wraps",
	CWrapNs:           "wrap_ns",
	CEncRecv:          "enc_recv",
	CParityRecv:       "parity_recv",
	CUsrRecv:          "usr_recv",
	CRecvCalls:        "recv_calls",
	CNACKSent:         "nack_sent",
	CIngestStale:      "ingest_stale",
	CIngestErrors:     "ingest_errors",
	CFECRecoveries:    "fec_recoveries",
	CDecodeCacheHit:   "decode_cache_hit",
	CDecodeCacheMiss:  "decode_cache_miss",
	CScenarioSteps:    "scenario_steps",
	COracleChecks:     "oracle_checks",
	COracleViolations: "oracle_violations",
}

// Gauge identifies a last-value-wins measurement.
type Gauge int

const (
	// GRho is the proactivity factor in effect.
	GRho Gauge = iota
	// GGroupSize is the key server's current member count.
	GGroupSize
	// GPendingJoins / GPendingLeaves are the queued batch sizes.
	GPendingJoins
	GPendingLeaves

	numGauges
)

var gaugeNames = [numGauges]string{
	GRho:           "rho",
	GGroupSize:     "group_size",
	GPendingJoins:  "pending_joins",
	GPendingLeaves: "pending_leaves",
}

// Hist identifies a bounded histogram.
type Hist int

const (
	// HRoundLatency is seconds from a round's first send to the end of
	// its NACK collection window.
	HRoundLatency Hist = iota
	// HNACKsPerRound is accepted NACKs per feedback round.
	HNACKsPerRound
	// HParityPerBlock is parity packets one parity encode adds to a block.
	HParityPerBlock
	// HBatchSize is joins+leaves per rekey batch.
	HBatchSize
	// HRekeyBuild is seconds to build one rekey message (marking + key
	// assignment + materialisation -- the sign/wrap-dominated phase).
	HRekeyBuild
	// HParityEncode is seconds per parity encode.
	HParityEncode
	// HShardBatch is seconds per key tree batch (keytree.ProcessBatch
	// inside Server.Rekey: marking, key generation and wrapping). It is
	// exported as shard_batch_s, the name bench/README.md's stage map
	// and existing dashboards key on.
	HShardBatch
	// HSignRoot is seconds per interval spent, once both subtrees exist,
	// on the interval Merkle tree's top, the root signature and the
	// packets' proof trailers (the amortized-signing cost that replaces
	// sign-per-message).
	HSignRoot
	// HAssignBuild is seconds per interval from key assignment through
	// the ENC packets' Merkle block trees, on Rekey's own goroutine.
	HAssignBuild
	// HUSRSubtree is seconds per interval building the USR subtree
	// (leaves and tree), which a signing server runs beside
	// HAssignBuild: the larger of the two is Rekey's critical path.
	HUSRSubtree
	// HMerkleProofBytes is the auth trailer size in bytes per packet
	// kind built (the O(log n) proof overhead the paper's capacity
	// analysis must budget for).
	HMerkleProofBytes

	numHists
)

var histNames = [numHists]string{
	HRoundLatency:     "round_latency_s",
	HNACKsPerRound:    "nacks_per_round",
	HParityPerBlock:   "parity_per_block",
	HBatchSize:        "batch_size",
	HRekeyBuild:       "rekey_build_s",
	HParityEncode:     "parity_encode_s",
	HShardBatch:       "shard_batch_s",
	HSignRoot:         "sign_root_s",
	HAssignBuild:      "assign_build_s",
	HUSRSubtree:       "usr_subtree_s",
	HMerkleProofBytes: "merkle_proof_bytes",
}

// histBounds are each histogram's bucket upper bounds (a final +Inf
// bucket is implicit). Kept small: histograms are bounded by design.
var histBounds = [numHists][]float64{
	HRoundLatency:     {0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5},
	HNACKsPerRound:    {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
	HParityPerBlock:   {0, 1, 2, 3, 5, 8, 13, 21, 34, 55},
	HBatchSize:        {1, 2, 5, 10, 20, 50, 100, 500, 1000, 5000},
	HRekeyBuild:       {0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1, 5},
	HParityEncode:     {0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1, 5},
	HShardBatch:       {0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1, 5},
	HSignRoot:         {0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1},
	HAssignBuild:      {0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1, 5},
	HUSRSubtree:       {0.0001, 0.0005, 0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1, 5},
	HMerkleProofBytes: {0, 64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048},
}

// EventKind types a trace event.
type EventKind uint8

const (
	// EvRekeyBuilt: the key server built a rekey message
	// (Value = real ENC packet count h).
	EvRekeyBuilt EventKind = iota
	// EvRoundStart: a multicast round began (Value = packets to send).
	EvRoundStart
	// EvNACKReceived: the server accepted a NACK (User = node ID,
	// Value = max parity requested in it).
	EvNACKReceived
	// EvRhoAdjusted: AdjustRho changed the proactivity factor
	// (Value = new rho).
	EvRhoAdjusted
	// EvSwitchToUnicast: the transport entered the unicast USR phase
	// (Value = pending user count).
	EvSwitchToUnicast
	// EvMemberDone: a member completed key recovery (client side;
	// Value = 1 if recovery needed FEC decoding).
	EvMemberDone
)

var eventKindNames = [...]string{
	EvRekeyBuilt:      "RekeyBuilt",
	EvRoundStart:      "RoundStart",
	EvNACKReceived:    "NACKReceived",
	EvRhoAdjusted:     "RhoAdjusted",
	EvSwitchToUnicast: "SwitchToUnicast",
	EvMemberDone:      "MemberDone",
}

// String returns the event kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "Unknown"
}

// Event is one trace entry. Seq and Time are assigned by Emit.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Kind  EventKind `json:"-"`
	Name  string    `json:"kind"` // Kind.String(), filled by Emit
	MsgID uint8     `json:"msg_id"`
	Round int       `json:"round,omitempty"`
	User  int       `json:"user,omitempty"`
	Value float64   `json:"value,omitempty"`
}

// DefaultTraceDepth is the ring size New uses.
const DefaultTraceDepth = 1024

// Registry is one pipeline's metrics + trace sink. The zero value is
// not usable; construct with New or NewWithDepth. All methods are
// goroutine-safe and no-ops on a nil receiver.
type Registry struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Uint64 // math.Float64bits
	hists    [numHists]histogram
	start    time.Time

	trace struct {
		mu   sync.Mutex
		buf  []Event // guarded by mu
		next uint64  // guarded by mu; total emitted, buf slot = next % len(buf)
	}
}

type histogram struct {
	count   atomic.Int64
	sum     atomic.Uint64 // math.Float64bits, CAS-accumulated
	buckets []atomic.Int64
}

// New returns a registry with the default trace depth.
func New() *Registry { return NewWithDepth(DefaultTraceDepth) }

// NewWithDepth returns a registry whose event ring holds depth entries
// (minimum 1).
func NewWithDepth(depth int) *Registry {
	if depth < 1 {
		depth = 1
	}
	r := &Registry{start: time.Now()}
	for h := range r.hists {
		r.hists[h].buckets = make([]atomic.Int64, len(histBounds[h])+1)
	}
	r.trace.buf = make([]Event, depth)
	return r
}

// Enabled reports whether the registry records anything. Use it to gate
// work done solely to compute an observation (e.g. time.Now pairs).
func (r *Registry) Enabled() bool { return r != nil }

// Add increments counter c by n.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Inc increments counter c by one.
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// CounterValue returns counter c's current value (0 on nil).
func (r *Registry) CounterValue(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// Set stores gauge g.
func (r *Registry) Set(g Gauge, v float64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(math.Float64bits(v))
}

// GaugeValue returns gauge g's current value (0 on nil).
func (r *Registry) GaugeValue(g Gauge) float64 {
	if r == nil {
		return 0
	}
	return math.Float64frombits(r.gauges[g].Load())
}

// Observe records v into histogram h.
func (r *Registry) Observe(h Hist, v float64) {
	if r == nil {
		return
	}
	hg := &r.hists[h]
	hg.count.Add(1)
	for {
		old := hg.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if hg.sum.CompareAndSwap(old, nw) {
			break
		}
	}
	bounds := histBounds[h]
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	hg.buckets[i].Add(1)
}

// ObserveSince records the seconds elapsed since start into h. start is
// typically taken only when Enabled() -- on a nil registry this is a
// no-op regardless.
func (r *Registry) ObserveSince(h Hist, start time.Time) {
	if r == nil {
		return
	}
	r.Observe(h, time.Since(start).Seconds())
}

// Emit appends a trace event, stamping Seq and Time. ev.Name is
// derived from ev.Kind.
func (r *Registry) Emit(ev Event) {
	if r == nil {
		return
	}
	t := &r.trace
	now := time.Now()
	t.mu.Lock()
	ev.Seq = t.next
	ev.Time = now
	ev.Name = ev.Kind.String()
	t.buf[t.next%uint64(len(t.buf))] = ev
	t.next++
	t.mu.Unlock()
}

// Events returns the retained trace, oldest first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	depth := uint64(len(t.buf))
	lo := uint64(0)
	if n > depth {
		lo = n - depth
	}
	out := make([]Event, 0, n-lo)
	for s := lo; s < n; s++ {
		out = append(out, t.buf[s%depth])
	}
	return out
}

// EventsDropped returns how many events fell off the ring.
func (r *Registry) EventsDropped() uint64 {
	if r == nil {
		return 0
	}
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next > uint64(len(t.buf)) {
		return t.next - uint64(len(t.buf))
	}
	return 0
}

// Bucket is one histogram bucket in a snapshot: count of observations
// <= Le (the last bucket's Le is +Inf, rendered as null in JSON).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistSnapshot is one histogram's state.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time JSON-friendly view of the registry.
type Snapshot struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Counters      map[string]int64        `json:"counters"`
	Gauges        map[string]float64      `json:"gauges"`
	Histograms    map[string]HistSnapshot `json:"histograms"`
}

// emptySnapshot allocates the map-initialized zero snapshot.
func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]int64, int(numCounters)),
		Gauges:     make(map[string]float64, int(numGauges)),
		Histograms: make(map[string]HistSnapshot, int(numHists)),
	}
}

// Snapshot captures every metric. Safe (and empty) on nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return emptySnapshot()
	}
	s := emptySnapshot()
	s.UptimeSeconds = time.Since(r.start).Seconds()
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[counterNames[c]] = r.counters[c].Load()
	}
	for g := Gauge(0); g < numGauges; g++ {
		s.Gauges[gaugeNames[g]] = math.Float64frombits(r.gauges[g].Load())
	}
	for h := Hist(0); h < numHists; h++ {
		hg := &r.hists[h]
		hs := HistSnapshot{
			Count: hg.count.Load(),
			Sum:   math.Float64frombits(hg.sum.Load()),
		}
		bounds := histBounds[h]
		for i := range hg.buckets {
			le := math.Inf(1)
			if i < len(bounds) {
				le = bounds[i]
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: hg.buckets[i].Load()})
		}
		s.Histograms[histNames[h]] = hs
	}
	return s
}
