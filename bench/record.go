package main

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// recorder accumulates one run's measured intervals. The harnesses fill
// it from outside the system: wall clocks around exported calls,
// getrusage, the allocation counters, the transports' Stats and the
// members' obs events.
type recorder struct {
	spec   *spec
	traced bool

	probeUs    []float64 // speed probes taken beside the set-ups and the measured intervals
	setupS     []float64
	intervalMs []float64 // batch closed -> interval delivered, one per interval
	rekeyMs    []float64 // Server.Rekey wall, one per interval
	ttkMs      []float64 // batch closed -> member keyed; the current interval's members
	ttkP99     []float64 // p99 of ttkMs, one per interval
	wireBytes  []float64 // datagram bytes arriving at a member, one per interval
	nacks1     []float64
	usrSent    []float64

	// One turn of the closed loop, queueing -> delivered, per interval: its
	// wall time and the process's user+sys CPU time. The checks between
	// turns are outside.
	turnMs, cpuMs []float64
	allocBytes    uint64
	sent, real    float64 // multicast datagrams sent, real ENC packets (h', h)

	keyedR1            int     // members keyed before the first retransmission
	attempted, failed  int     // live members summed over intervals; those that never got the key
	nackIntervals      int     // intervals in which any NACK arrived
	drops, expectDrops float64 // datagrams the links dropped; what their configured rates predict
	rxDatagrams        float64 // datagrams counted at the clients' doors, before injected loss
	// ident holds accounting identities: sums over the run of two
	// counts, taken in different places, that must come out equal.
	ident       map[string]*[2]float64
	kernelDrops int64
	violations  []string

	layer *layerRec // traced run only
	tr    *tracer   // traced run only
}

func newRecorder(s *spec, traced bool) *recorder {
	r := &recorder{spec: s, traced: traced}
	if traced {
		r.layer = newLayerRec()
		r.tr = newTracer()
	}
	return r
}

// probe takes one reading of the host's speed.
func (r *recorder) probe() { r.probeUs = append(r.probeUs, us(speedProbe())) }

// hostSpeed is the run's speed as a share of the sizing host's at full
// speed: what every duration of the run is multiplied by.
func (r *recorder) hostSpeed() float64 {
	if len(r.probeUs) == 0 {
		return 1
	}
	return us(probeNominal) / median(r.probeUs)
}

// closeInterval folds the interval's member done times into its p99.
// time_to_key_ms_p99 is the median of these: a p99 over the whole run's
// members would be set by the two or three slowest intervals (a thousand
// correlated samples each), which is what differs from run to run.
func (r *recorder) closeInterval() {
	if len(r.ttkMs) > 0 {
		r.ttkP99 = append(r.ttkP99, percentile(r.ttkMs, 99))
	}
	r.ttkMs = r.ttkMs[:0]
}

// identity adds one interval's pair to a named accounting identity.
func (r *recorder) identity(name string, left, right float64) {
	if r.ident == nil {
		r.ident = map[string]*[2]float64{}
	}
	if r.ident[name] == nil {
		r.ident[name] = new([2]float64)
	}
	r.ident[name][0] += left
	r.ident[name][1] += right
}

func (r *recorder) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// result is one run of one workload, as printed and saved.
type result struct {
	Workload    string                `json:"workload"`
	Seed        uint64                `json:"seed"`
	Traced      bool                  `json:"traced"`
	Intervals   int                   `json:"intervals"`
	HostSpeed   float64               `json:"host_speed"` // durations below are already multiplied by it
	Valid       bool                  `json:"valid"`
	Invalid     []string              `json:"invalid,omitempty"`
	Violations  []string              `json:"violations,omitempty"`
	KernelDrops int64                 `json:"kernel_drops"` // RcvbufErrors over the run; -1 where unreadable
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	E2E         map[string]metric     `json:"end_to_end"`
	Layer       map[string]metric     `json:"per_layer,omitempty"`
	Identities  map[string][2]float64 `json:"identities,omitempty"`
	SelfTime    []selfRow             `json:"self_time,omitempty"`
	TraceFile   string                `json:"trace_file,omitempty"`
}

func (res *result) ok() bool { return res.Valid && len(res.Violations) == 0 }

// finish turns the accumulated intervals into named metrics and judges
// the run's validity.
func (r *recorder) finish(seed uint64) *result {
	n := len(r.intervalMs)
	res := &result{
		Workload: r.spec.name, Seed: seed, Traced: r.traced, Intervals: n,
		HostSpeed: r.hostSpeed(), Valid: true, Violations: r.violations,
		Attempted: r.attempted, Failed: r.failed, KernelDrops: r.kernelDrops,
		E2E: map[string]metric{},
	}
	if n == 0 {
		res.Valid = false
		res.Invalid = append(res.Invalid, "no interval was measured")
		n = 1
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	per := func(total float64, unit string) metric {
		return metric{Value: total / float64(n), Unit: unit, Samples: n}
	}
	// A duration is the median of its samples, in the sizing host's time.
	duration := func(xs []float64, unit string) metric {
		m := timing(xs, unit)
		m.Value, m.Tail = m.Value*res.HostSpeed, m.Tail*res.HostSpeed
		return m
	}
	e := res.E2E
	e["setup_s"] = duration(r.setupS, "s")
	e["interval_ms_p50"] = duration(r.intervalMs, "ms")
	e["time_to_key_ms_p99"] = duration(r.ttkP99, "ms")
	e["cpu_ms_per_interval"] = duration(r.cpuMs, "ms")
	e["rekey_ms_p50"] = duration(r.rekeyMs, "ms")
	e["intervals_per_s"] = metric{Value: ratio(1e3, duration(r.turnMs, "ms").Value), Unit: "1/s", Samples: n}
	e["alloc_mb_per_interval"] = per(float64(r.allocBytes)/(1<<20), "MB")
	e["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB", Samples: 1}
	e["wire_bytes_per_member"] = metric{Value: stats.Mean(r.wireBytes), Unit: "B", Samples: len(r.wireBytes)}
	e["bandwidth_overhead"] = metric{Value: ratio(r.sent, r.real), Unit: "ratio", Samples: n}
	e["keyed_round1_share"] = metric{Value: ratio(float64(r.keyedR1), float64(r.attempted)), Unit: "ratio", Samples: r.attempted}
	e["nacks_round1_per_interval"] = metric{Value: stats.Mean(r.nacks1), Unit: "count", Samples: len(r.nacks1)}
	e["usr_sent_per_interval"] = metric{Value: stats.Mean(r.usrSent), Unit: "count", Samples: len(r.usrSent)}
	e["failed_share"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted}

	for name, pair := range r.ident {
		if res.Identities == nil {
			res.Identities = map[string][2]float64{}
		}
		res.Identities[name] = *pair
		if pair[0] != pair[1] {
			res.Violations = append(res.Violations, fmt.Sprintf("accounting identity broken: %s: %v != %v", name, pair[0], pair[1]))
		}
	}

	// Validity: a run is only evidence when what it measured was the
	// protocol. Kernel drops are loss the harness did not inject, and a
	// NACK on a loss-free interval is a starved receiver, never loss.
	if r.kernelDrops > 0 {
		res.Valid = false
		res.Invalid = append(res.Invalid, fmt.Sprintf("kernel dropped %d datagrams (RcvbufErrors)", r.kernelDrops))
	}
	if r.spec.wire && !r.spec.lossy && float64(r.nackIntervals) > 0.05*float64(n) {
		res.Valid = false
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d of %d loss-free intervals saw a spurious NACK (limit 5%%)", r.nackIntervals, n))
	}
	// Within 0.01 plus four standard errors of a share drawn in bursts of
	// two: a full-size run has 10^5 datagrams and the second term vanishes.
	got, want := ratio(r.drops, r.rxDatagrams), ratio(r.expectDrops, r.rxDatagrams)
	if tol := 0.01 + 4*math.Sqrt(3*want*(1-want)/max(1, r.rxDatagrams)); math.Abs(got-want) > tol {
		res.Valid = false
		res.Invalid = append(res.Invalid, fmt.Sprintf("injected loss share %.4f, the links were configured for %.4f", got, want))
	}
	return res
}
