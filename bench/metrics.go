package main

import (
	"slices"

	"repro/internal/stats"
)

// metricDef describes one end-to-end metric: the glossary row of
// README.md in code. bound is the share of the reference value by which
// the metric may worsen before -repeat / -compare call it a regression;
// absBound replaces it for shares that sit at 0 or 1, where a relative
// bound means nothing.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
	bound      float64
	absBound   float64
	// on lists the workloads the metric is judged on; nil means all four.
	on []string
	// contract marks the metrics that are defined and non-zero on every
	// workload, which is what BENCHMARK.json's end_to_end list requires.
	// The others are reported under per_layer there (no bound) and keep
	// their bound in -repeat / -compare.
	contract bool
}

var (
	wireOnly  = []string{"wire_clean", "wire_lossy"}
	lossyOnly = []string{"wire_lossy"}
	notLossy  = []string{"wire_clean", "build_16k", "build_swing"}
	buildOnly = []string{"build_16k", "build_swing"}
	notSwing  = []string{"wire_clean", "wire_lossy", "build_16k"}
)

// endToEnd is the end-to-end metric table. A bound is three times the
// widest quartile spread (as a share of the median) that ten seeds of
// any one workload showed on the host README.md describes, measured
// twice, and at most the 0.25 the contract allows; README.md "Bounds"
// has the spreads. Counts and byte totals repeat to a few per cent.
// Timings, once multiplied by the run's host speed (host.go), spread
// 3-9 %. A regression smaller than a bound is not resolved by the
// contract's one set of runs; README.md says what resolves it.
//
// Three metrics stay out of the contract list because one workload each
// makes them unsteady beyond even the widest bound, and three because
// they are zero where nothing is lost. The last member's done time is a
// maximum over the group, which on wire_lossy lands on whole NACK
// windows (RoundDur apart): seven runs in ten read 1175-1210 ms and the
// rest 920-1050, a spread of 10-18 %. Rekey is called some fifteen
// times in a wire_lossy run and fifty in a wire_clean one, among a
// thousand members' timers, and its median spreads up to 19 %.
// build_swing's 20 MB process peaks anywhere from 20 to 30 MB depending
// on where GC cycles fall. time_to_key_ms_p99, intervals_per_s,
// cpu_ms_per_interval and alloc_mb_per_interval carry the same costs:
// off wire_lossy, interval_ms_p50 is time_to_key_ms_p99 to within 2 %.
//
// time_to_key_ms_p99 and keyed_round1_share are the members' view and
// are judged on the wire. The contract wants every metric it lists
// defined and non-zero on every workload, so build_* report them for
// the in-process sample: the time until a member's datagram exists, and
// the share its own datagram keyed, which is 1 or the run has failed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, contract: true},
	{name: "interval_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: notLossy},
	{name: "time_to_key_ms_p99", unit: "ms", better: "lower", bound: 0.25, on: wireOnly, contract: true},
	{name: "cpu_ms_per_interval", unit: "ms", better: "lower", bound: 0.24, contract: true},
	{name: "rekey_ms_p50", unit: "ms", better: "lower", bound: 0.25, on: buildOnly},
	{name: "intervals_per_s", unit: "1/s", better: "higher", bound: 0.25, contract: true},
	{name: "alloc_mb_per_interval", unit: "MB", better: "lower", bound: 0.06, contract: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, on: notSwing},
	{name: "wire_bytes_per_member", unit: "B", better: "lower", bound: 0.12, contract: true},
	{name: "bandwidth_overhead", unit: "ratio", better: "lower", bound: 0.12, contract: true},
	{name: "keyed_round1_share", unit: "ratio", better: "higher", bound: 0.02, on: wireOnly, contract: true},
	{name: "nacks_round1_per_interval", unit: "count", better: "lower", bound: 0.2, on: lossyOnly},
	{name: "usr_sent_per_interval", unit: "count", better: "lower", bound: 0.2, on: lossyOnly},
	{name: "failed_share", unit: "ratio", better: "lower", absBound: 0.001},
}

// layerDef describes one per-layer metric of the traced run.
type layerDef struct {
	name, unit, better string
}

// perLayer lists every per-layer metric, in the order the traced run
// prints them. README.md says which end-to-end metric each should move.
var perLayer = []layerDef{
	{"keytree.batch_ms", "ms", "lower"},
	{"keytree.encryptions", "count", "lower"},
	{"keytree.keys_generated", "count", "lower"},
	{"keytree.allocs_per_batch", "count", "lower"},
	{"keys.wrap_ns_per_op", "ns", "lower"},
	{"keys.merkle_build_ms", "ms", "lower"},
	{"keys.sign_root_ms", "ms", "lower"},
	{"keys.proof_verify_us", "us", "lower"},
	{"keys.root_verify_cached_share", "ratio", "higher"},
	{"assign.build_ms", "ms", "lower"},
	{"assign.materialize_ms", "ms", "lower"},
	{"assign.packets", "count", "lower"},
	{"assign.dup_overhead", "ratio", "lower"},
	{"blockplan.blocks", "count", "lower"},
	{"blockplan.pad_share", "ratio", "lower"},
	{"packet.marshal_enc_us", "us", "lower"},
	{"packet.parse_enc_us", "us", "lower"},
	{"packet.auth_trailer_bytes", "B", "lower"},
	{"fec.encode_us_per_parity", "us", "lower"},
	{"fec.encode_ms_per_interval", "ms", "lower"},
	{"fec.decode_us_per_block", "us", "lower"},
	{"fec.parity_cache_hit_share", "ratio", "higher"},
	{"fec.decode_cache_hit_share", "ratio", "higher"},
	{"protocol.encode_blocks_ms", "ms", "lower"},
	{"protocol.sendbuf_reuse_share", "ratio", "higher"},
	{"rekey.rekey_ms_p95", "ms", "lower"},
	{"rekey.self_ms", "ms", "lower"},
	{"rekey.wire_materialize_ms", "ms", "lower"},
	{"rekey.wire_usr_us", "us", "lower"},
	{"rekey.alloc_kb_per_interval", "kB", "lower"},
	{"member.ingest_us.enc_own", "us", "lower"},
	{"member.ingest_us.enc_other", "us", "lower"},
	{"member.ingest_us.parity", "us", "lower"},
	{"member.ingest_us.usr", "us", "lower"},
	{"member.ingest_us.stale", "us", "lower"},
	{"member.ingests_per_interval", "count", "lower"},
	{"member.useful_share", "ratio", "higher"},
	{"member.recovered_share", "ratio", "lower"},
	{"member.cpu_us_per_interval", "us", "lower"},
	{"member.allocs_per_ingest", "count", "lower"},
	{"udptrans.distribute_ms", "ms", "lower"},
	{"udptrans.busy_ms", "ms", "lower"},
	{"udptrans.wait_ms", "ms", "lower"},
	{"udptrans.send_us_per_datagram", "us", "lower"},
	{"udptrans.rounds", "count", "lower"},
	{"udptrans.unicast_waves", "count", "lower"},
	{"udptrans.unicast_phase_ms", "ms", "lower"},
	{"udptrans.nack_recv", "count", "lower"},
	{"udptrans.nack_ignored", "count", "lower"},
	{"udptrans.usr_useful_share", "ratio", "higher"},
	{"udptrans.client.rx_datagrams", "count", "lower"},
	{"udptrans.client.nack_sent", "count", "lower"},
	{"udptrans.client.spurious_nacks", "count", "lower"},
	{"udptrans.kernel_rcvbuf_drops", "count", "lower"},
	{"udptrans.client.time_to_key_ms_p50", "ms", "lower"},
	{"obs.overhead_cpu_pct", "%", "lower"},
	{"obs.overhead_interval_pct", "%", "lower"},
	{"netsim.injected_loss_share", "ratio", "lower"},
	{"harness.host_speed", "ratio", "higher"},
}

// extraLayer metrics are printed by the traced run but are not part of
// BENCHMARK.json: the speed-up is omitted when GOMAXPROCS=1, and the
// replayed sum exists to be read against rekey_ms (the replay repeats
// Rekey's work, so a sum much above it measures something else).
var extraLayer = []layerDef{
	{"rekey.replayed_ms", "ms", "lower"},
	{"protocol.encode_blocks_speedup", "ratio", "higher"},
}

// judgedOn reports whether the metric is judged on the workload.
func (d metricDef) judgedOn(workload string) bool {
	return d.on == nil || slices.Contains(d.on, workload)
}

// metric is one reported value. Samples is how many observations the
// value summarises (1 for a counter read once).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond
	// it, reported beside a timing's median.
	Tail      float64 `json:"tail,omitempty"`
	TailLabel string  `json:"tail_label,omitempty"`
}

// percentile is stats.Percentile (linear interpolation between order
// statistics, p in 0..100) with 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a timing may be reported at.
// oneIn is how many samples it takes to put one beyond the percentile.
var tailLadder = []struct {
	p     float64
	oneIn int
	label string
}{{99.9, 1000, "p99.9"}, {99, 100, "p99"}, {95, 20, "p95"}, {90, 10, "p90"}, {75, 4, "p75"}}

// timing summarises samples as their median plus the highest ladder
// percentile that still has ten samples beyond it.
func timing(xs []float64, unit string) metric {
	m := metric{Value: median(xs), Unit: unit, Samples: len(xs)}
	for _, t := range tailLadder {
		if len(xs) >= 10*t.oneIn {
			m.Tail, m.TailLabel = percentile(xs, t.p), t.label
			break
		}
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
