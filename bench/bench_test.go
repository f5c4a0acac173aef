package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// miniature shrinks a workload to N=64 and, on the wire, to timing a
// crowd of 64 does not need, so that all four run in a few seconds.
// wire_lossy gets N=256: at 64 a message is three packets and seven
// padding copies of them, nobody needs a NACK, and the recovery half of
// the identities would compare nothing with nothing.
func miniature(t *testing.T, name string) spec {
	t.Helper()
	s, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s.n, s.intervals = 64, 6
	if name == "wire_lossy" {
		s.n = 256
	}
	if s.wire {
		s.roundDur, s.quietGap = 60*time.Millisecond, 25*time.Millisecond
	}
	return s
}

// TestMiniatureWorkloads runs every workload traced at N=64 and asserts
// the accounting identities: what the transport says it sent, what the
// server's obs counters say, and what the harness counted at the
// members' doors are the same numbers; the mirror tree ends on the
// server's key and every shadow on its live member's keys (either
// would be a violation); the links dropped what they were configured to.
func TestMiniatureWorkloads(t *testing.T) {
	wireIdentities := []string{
		"datagrams at the clients' doors = (EncSent+ParitySent) x members + UsrSent",
		"Stats.EncSent = obs enc_sent",
		"Stats.ParitySent = obs parity_sent",
		"Stats.UsrSent = obs usr_sent",
		"sum of Stats.NACKsPerRound = obs nack_recv",
		"members' obs enc+parity+usr recv = datagrams at the door - injected drops",
	}
	for _, name := range []string{"wire_clean", "wire_lossy", "build_16k", "build_swing"} {
		t.Run(name, func(t *testing.T) {
			s := miniature(t, name)
			o := options{seed: 7, outDir: t.TempDir()}
			res, err := runWorkload(&s, o, describeHost(), true)
			if err != nil {
				t.Fatal(err)
			}
			if res.KernelDrops > 0 {
				// A starved host (the race detector is enough) overflows
				// socket buffers; every identity below assumes it did not.
				t.Skipf("the kernel dropped %d datagrams: this run says nothing about the accounting", res.KernelDrops)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			for _, v := range res.Invalid {
				t.Errorf("invalid: %s", v)
			}
			// A member whose link swallows a whole (short) message never
			// learns there was one and fails the interval; that is the
			// protocol, and rare. Anything more is not.
			if res.Intervals != s.intervals || res.Attempted == 0 || res.Failed > 0 && (!s.lossy || res.Failed*100 > res.Attempted) {
				t.Errorf("intervals=%d attempted=%d failed=%d, want %d intervals and no failure",
					res.Intervals, res.Attempted, res.Failed, s.intervals)
			}
			if s.wire {
				for _, id := range wireIdentities {
					pair, ok := res.Identities[id]
					if !ok || pair[0] != pair[1] {
						t.Errorf("identity %q: %v (recorded: %v)", id, pair, ok)
					}
					// Parity, USR and NACKs only flow under loss.
					if pair[0] == 0 && (s.lossy || id == wireIdentities[0] || id == wireIdentities[1]) {
						t.Errorf("identity %q compared nothing with nothing", id)
					}
				}
			}
			if s.lossy {
				got := res.Layer["netsim.injected_loss_share"].Value
				want := lossAlpha*lossHigh + (1-lossAlpha)*lossLow
				// 64 links are a small draw from the 20/80 population, so
				// the share is checked against these links' own rates
				// (finish does that, within 0.01) and only loosely here.
				if got <= 0 || math.Abs(got-want) > 0.05 {
					t.Errorf("injected loss share %.4f, population mean %.4f", got, want)
				}
				if res.Layer["udptrans.nack_recv"].Value == 0 {
					t.Error("a lossy workload saw no NACK")
				}
			}
			if got := res.Layer["keytree.batch_ms"].Samples; got != s.intervals {
				t.Errorf("mirror tree ran %d batches, want %d", got, s.intervals)
			}
			if s.wire && res.Layer["member.ingests_per_interval"].Samples == 0 {
				t.Error("no shadow member ingested anything")
			}
			if s.signed && res.Layer["keys.sign_root_ms"].Value == 0 {
				t.Error("signed workload replayed no root signature")
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if d, w := res.Layer["udptrans.distribute_ms"].Value, res.Layer["udptrans.busy_ms"].Value+res.Layer["udptrans.wait_ms"].Value; math.Abs(d-w) > 1e-6 {
				t.Errorf("distribute_ms %v != busy_ms + wait_ms %v", d, w)
			}
			// The contract line carries exactly the per_layer names.
			var line struct {
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(contractPerLayer()) {
				t.Errorf("traced contract line has %d metrics, want %d", len(line.Metrics), len(contractPerLayer()))
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// from drifting apart; every run started through run.sh checks the same.
func TestBenchmarkJSON(t *testing.T) {
	if err := checkContract("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "wire_clean", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "wire_clean", "-trace=1", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTimingReportsHighestSupportedTail(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i)
	}
	m := timing(xs, "ms")
	if m.Value != 124.5 || m.TailLabel != "p95" || m.Samples != 250 {
		t.Errorf("got %+v: 250 samples leave ten beyond p95, not beyond p99", m)
	}
	if m := timing(xs[:30], "ms"); m.TailLabel != "" {
		t.Errorf("30 samples support no tail percentile, got %q", m.TailLabel)
	}
}

func TestCompareSetsAppliesBounds(t *testing.T) {
	set := func(cpu, failed float64) []*result {
		return []*result{{Workload: "build_16k", E2E: map[string]metric{
			"cpu_ms_per_interval": {Value: cpu}, "failed_share": {Value: failed},
			"intervals_per_s": {Value: 20},
		}}}
	}
	if !compareSets(set(100, 0), set(105, 0)) {
		t.Error("5% more CPU is within the bound")
	}
	if compareSets(set(100, 0), set(130, 0)) {
		t.Error("30% more CPU is beyond the bound")
	}
	if !compareSets(set(100, 0), set(60, 0)) {
		t.Error("an improvement is never a regression")
	}
	if compareSets(set(100, 0), set(100, 0.01)) {
		t.Error("failed_share has an absolute bound of 0.001")
	}
}

// The probe's reading must not depend on the heap of the program it runs
// beside, so it may not allocate.
func TestSpeedProbeDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { speedProbe() }); n != 0 {
		t.Errorf("speedProbe allocates %v times per call", n)
	}
}
