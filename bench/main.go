// Command bench is the repository's benchmark: one rekey interval on
// the real path, measured end to end and layer by layer. It drives the
// public API only and changes nothing outside its own directory; see
// README.md for the metrics, the workloads and why they were chosen.
//
//	go run . -workload wire_clean -seed 1          one workload
//	go run . -all [-trace]                         every workload
//	go run . -repeat 2                             the set twice; do the runs agree?
//	go run . -compare a.json b.json                two saved results
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/keys"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	all      bool
	repeat   int
	compare  bool
	save     string
	outDir   string
}

func main() {
	o := options{outDir: defaultOutDir()}
	flag.StringVar(&o.workload, "workload", "", "workload to run: wire_clean, wire_lossy, build_16k, build_swing")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run of a workload may take, set-ups and warm-up included; 0 measures the workload's fixed interval count")
	flag.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and a span file under bench/out")
	flag.BoolVar(&o.all, "all", false, "run every workload (with -trace: an untraced and a traced run of each)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the whole set this many times on seeds 1 and 2 and compare the first two sets")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files saved with -save")
	flag.StringVar(&o.save, "save", "", "write the results as JSON to this file")
	flag.CommandLine.Parse(normalizeArgs(os.Args[1:])) //nolint:errcheck // ExitOnError
	os.Exit(run(o, flag.Args()))
}

// normalizeArgs lets the boolean -trace take a separate 0/1 value, the
// form the benchmark contract calls it with ("--trace 1").
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// defaultOutDir is bench/out whether the command runs from the
// repository root or from the benchmark's own directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func run(o options, args []string) int {
	host := describeHost()
	switch {
	case o.compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(args[0], args[1])
	case o.repeat > 0:
		return repeatSets(o, host)
	case o.all:
		printHost(host)
		set, ok := runSet(o, host, o.seed)
		if o.save != "" {
			if err := saveSet(o.save, host, set); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if !ok {
			return 1
		}
		return 0
	case o.workload == "":
		flag.Usage()
		return 2
	}

	s, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// run.sh starts the binary in the checkout's root, beside the file
	// that tells the driver what the result line holds.
	if err := checkContract("BENCHMARK.json"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printHost(host)
	res, err := runWorkload(&s, o, host, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res)
	if o.save != "" {
		if err := saveSet(o.save, host, []*result{res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(contractLine(res))
	if !res.ok() {
		return 1
	}
	return 0
}

// runSet runs every workload on one seed. With -trace each workload
// runs twice, untraced for the end-to-end numbers and traced for the
// per-layer ones.
func runSet(o options, host hostInfo, seed uint64) ([]*result, bool) {
	o.seed = seed
	var set []*result
	ok := true
	for _, s := range workloads() {
		modes := []bool{false}
		if o.trace {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			res, err := runWorkload(&s, o, host, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
				ok = false
				continue
			}
			printResult(res)
			set = append(set, res)
			ok = ok && res.ok()
		}
	}
	return set, ok
}

// group is what the two harnesses have in common.
type group interface {
	interval(ctx context.Context, idx int, rec *recorder) error
	close()
}

func setup(s *spec, seed uint64, traced bool, signer *keys.Signer) (group, error) {
	if s.wire {
		return setupWire(s, seed, traced, signer)
	}
	return setupBuild(s, seed, traced, signer)
}

const (
	// A 13 ms set-up read three times is noise: set-ups repeat, between
	// minSetups and maxSetups times, until a tenth of the run's seconds
	// has gone into them (setupBudget in a run by interval count).
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
	// minMeasured intervals are measured however short the run.
	minMeasured = 3
)

// runWorkload sets the group up several times (setup_s is the median;
// the last group is the one measured), runs the warm-up and then the
// measured closed loop. o.seconds, when set, is the budget of the whole
// run: signer, set-ups, warm-up and teardown come out of it, and the
// measured loop gets what is left. A traced run spends a quarter of
// that on an untraced loop over the last plain group, the reference its
// tracing overhead is read against, and then sets up the traced group.
func runWorkload(s *spec, o options, host hostInfo, traced bool) (*result, error) {
	begin := time.Now()
	var deadline time.Time // zero: measure s.intervals
	setupFor := setupBudget
	if o.seconds > 0 {
		budget := time.Duration(o.seconds * float64(time.Second))
		deadline, setupFor = begin.Add(budget), budget/10
	}
	if err := preflight(s.fds()); err != nil {
		return nil, err
	}
	signer, err := newSigner(s)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	drops0, dropsKnown := udpRcvbufErrors()
	ctx := context.Background()
	rec := newRecorder(s, traced)

	var g group
	var spent time.Duration
	for i := 1; ; i++ {
		rec.probe()
		t0 := time.Now()
		if g, err = setup(s, o.seed, false, signer); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		rec.setupS = append(rec.setupS, took.Seconds())
		if spent += took; i >= maxSetups || i >= minSetups && spent >= setupFor {
			break
		}
		g.close()
		// Each set-up starts from a collected heap, so that neither its
		// time nor the run's peak RSS depends on how much of the
		// previous ones' garbage happens to be lying around.
		runtime.GC()
	}

	var ref *recorder
	if traced {
		ref = newRecorder(s, false)
		refDeadline := deadline
		if !deadline.IsZero() {
			refDeadline = time.Now().Add(time.Until(deadline) / 4)
		}
		err := loop(ctx, g, s, ref, refDeadline, (s.intervals+3)/4)
		g.close()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if g, err = setup(s, o.seed, true, signer); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer g.close()

	if err := loop(ctx, g, s, rec, deadline, s.intervals); err != nil {
		return nil, err
	}
	if drops1, ok := udpRcvbufErrors(); ok && dropsKnown {
		rec.kernelDrops = drops1 - drops0
	} else if s.wire {
		rec.kernelDrops = -1
	}
	res := rec.finish(o.seed)
	if traced {
		rec.layer.count("kernel_drops", float64(rec.kernelDrops))
		refRes := ref.finish(o.seed)
		overhead := func(name string) float64 {
			return 100 * (ratio(res.E2E[name].Value, refRes.E2E[name].Value) - 1)
		}
		rec.layer.add("obs.overhead_cpu_pct", overhead("cpu_ms_per_interval"))
		rec.layer.add("obs.overhead_interval_pct", overhead("interval_ms_p50"))
		res.Violations = append(res.Violations, refRes.Violations...)
		res.Layer = rec.layer.metrics(res.HostSpeed)
		res.SelfTime = rec.tr.selfTimes()
		if res.TraceFile, err = rec.tr.write(o.outDir, res, host); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// loop is the closed loop: one driver, the next batch closed only after
// the previous interval is delivered. The first warmupIntervals are
// discarded except for their violations. With a deadline it measures
// until one more interval (taken as the longest so far) would overrun
// it; without one it measures count intervals.
func loop(ctx context.Context, g group, s *spec, rec *recorder, deadline time.Time, count int) error {
	warm := newRecorder(s, rec.traced)
	for i := 0; i < warmupIntervals; i++ {
		if err := g.interval(ctx, i, warm); err != nil {
			return err
		}
	}
	rec.violations = append(rec.violations, warm.violations...)
	var longest time.Duration
	for i := 0; ; i++ {
		if deadline.IsZero() {
			if i >= count {
				break
			}
		} else if i >= minMeasured && time.Now().Add(longest).After(deadline) {
			break
		}
		rec.probe()
		t0 := time.Now()
		if err := g.interval(ctx, warmupIntervals+i, rec); err != nil {
			return err
		}
		longest = max(longest, time.Since(t0))
	}
	return nil
}

func printHost(h hostInfo) {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s gf256=%s cpu=%v ulimit-n=%d\n      %s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GF256Kernel, h.CPUFeatures, h.NoFile, h.Network)
}

func printResult(res *result) {
	mode := "end-to-end run (untraced)"
	if res.Traced {
		mode = "traced run"
	}
	fmt.Printf("\n== %s  seed=%d  %s  %d intervals measured after %d warm-up\n",
		res.Workload, res.Seed, mode, res.Intervals, warmupIntervals)
	fmt.Printf("  host speed %.3f of the sizing host's: every duration below is what was measured times that\n", res.HostSpeed)
	if !res.Traced {
		for _, d := range endToEnd {
			m := res.E2E[d.name]
			note := ""
			if !d.judgedOn(res.Workload) {
				note = "  (not judged on this workload)"
			}
			tail := ""
			if m.TailLabel != "" {
				tail = fmt.Sprintf("  %s=%.4g", m.TailLabel, m.Tail)
			}
			fmt.Printf("  %-28s %14.6g %-6s n=%-7d%s%s\n", d.name, m.Value, m.Unit, m.Samples, tail, note)
		}
	} else {
		names := make([]string, 0, len(res.Layer))
		for name := range res.Layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.Layer[name]
			fmt.Printf("  %-38s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		}
		printSelfTimes(res.SelfTime)
		fmt.Printf("  tracing overhead: cpu_ms_per_interval %+.1f%%, interval_ms_p50 %+.1f%% (traced vs the untraced reference loop)\n",
			res.Layer["obs.overhead_cpu_pct"].Value, res.Layer["obs.overhead_interval_pct"].Value)
		fmt.Printf("  trace: %s\n", res.TraceFile)
	}
	fmt.Printf("  members x intervals attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	for _, v := range res.Invalid {
		fmt.Printf("  INVALID: %s\n", v)
	}
	if res.ok() {
		fmt.Println("  correct: yes   valid: yes")
	} else {
		fmt.Printf("  correct: %v   valid: %v\n", len(res.Violations) == 0, res.Valid)
	}
}

// contractLine is the last line of a single-workload run: the JSON
// object BENCHMARK.json's driver reads. An untraced run carries every
// end_to_end metric, a traced run every per_layer one.
func contractLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.ok(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no spelling for them, and the line must parse
		}
		out.Metrics[name] = value{v, unit}
	}
	if res.Traced {
		for _, name := range contractPerLayer() {
			m := res.Layer[name]
			if m.Unit == "" {
				m = res.E2E[name]
			}
			put(name, m.Value, m.Unit)
		}
	} else {
		for _, d := range endToEnd {
			if d.contract {
				put(d.name, res.E2E[d.name].Value, d.unit)
			}
		}
	}
	data, _ := json.Marshal(out) //nolint:errcheck // plain structs of numbers and strings
	return string(data)
}

// contractPerLayer is BENCHMARK.json's per_layer list: every per-layer
// metric plus the end-to-end ones that are zero or unsteady on some
// workload and so cannot be listed under end_to_end there.
func contractPerLayer() []string {
	var names []string
	for _, d := range endToEnd {
		if !d.contract {
			names = append(names, d.name)
		}
	}
	for _, d := range perLayer {
		names = append(names, d.name)
	}
	return names
}

// checkContract reads BENCHMARK.json and reports where it and the
// tables of this package have drifted apart: the workloads, the
// end_to_end metrics with their bounds, the per_layer metrics.
func checkContract(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", path, len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			return fmt.Errorf("%s: workload %d is %q there and %q here (or their reasons differ)", path, i, b.Workloads[i].Name, w.name)
		}
	}
	var e2e, layer []entry
	for _, d := range endToEnd {
		if d.contract {
			e2e = append(e2e, entry{d.name, d.unit, d.better, d.bound})
		} else {
			layer = append(layer, entry{Name: d.name, Unit: d.unit, Better: d.better})
		}
	}
	for _, d := range perLayer {
		layer = append(layer, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		return fmt.Errorf("%s: end_to_end is\n %v\nthe benchmark reports\n %v", path, b.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(b.PerLayer, layer) {
		return fmt.Errorf("%s: per_layer is\n %v\nthe benchmark reports\n %v", path, b.PerLayer, layer)
	}
	return nil
}
