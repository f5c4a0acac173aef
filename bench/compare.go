package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// savedSet is what -save writes and -compare reads: one or more runs of
// each workload on one build of the code.
type savedSet struct {
	Host    hostInfo  `json:"host"`
	Results []*result `json:"results"`
}

func saveSet(path string, host hostInfo, set []*result) error {
	data, err := json.MarshalIndent(savedSet{Host: host, Results: set}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadSet(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s savedSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s.Results, nil
}

func compareFiles(a, b string) int {
	sa, erra := loadSet(a)
	sb, errb := loadSet(b)
	if err := errors.Join(erra, errb); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !compareSets(sa, sb) {
		return 1
	}
	return 0
}

// repeatSets runs the whole set o.repeat times on the same code, each
// set on seeds 1 and 2, and compares the first two sets: a benchmark
// whose own repeat runs disagree by more than a metric's bound cannot
// judge a change by that bound.
func repeatSets(o options, host hostInfo) int {
	printHost(host)
	o.trace = false
	sets := make([][]*result, max(2, o.repeat))
	ok := true
	for i := range sets {
		for _, seed := range []uint64{1, 2} {
			fmt.Printf("\n#### set %d, seed %d\n", i+1, seed)
			rs, good := runSet(o, host, seed)
			sets[i] = append(sets[i], rs...)
			ok = ok && good
		}
		if o.save != "" {
			if err := saveSet(fmt.Sprintf("%s.%d", o.save, i+1), host, sets[i]); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	if !compareSets(sets[0], sets[1]) || !ok {
		return 1
	}
	return 0
}

// medians reduces a set to one value per workload and end-to-end
// metric: the median over the set's untraced runs of that workload.
func medians(set []*result) map[string]map[string]float64 {
	samples := map[string]map[string][]float64{}
	for _, r := range set {
		if r.Traced {
			continue
		}
		if samples[r.Workload] == nil {
			samples[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.E2E {
			samples[r.Workload][name] = append(samples[r.Workload][name], m.Value)
		}
	}
	out := map[string]map[string]float64{}
	for w, byName := range samples {
		out[w] = map[string]float64{}
		for name, xs := range byName {
			out[w][name] = median(xs)
		}
	}
	return out
}

// compareSets prints, per workload and end-to-end metric, both values,
// how much worse b is than a, and the bound; it reports whether every
// judged metric stayed within its bound.
func compareSets(a, b []*result) bool {
	ma, mb := medians(a), medians(b)
	ok := true
	fmt.Printf("\n%-12s %-28s %14s %14s %10s %8s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, s := range workloads() {
		va, vb := ma[s.name], mb[s.name]
		if va == nil || vb == nil {
			continue
		}
		for _, d := range endToEnd {
			if !d.judgedOn(s.name) {
				continue
			}
			x, y := va[d.name], vb[d.name]
			worse := y - x // positive = b is worse
			if d.better == "higher" {
				worse = x - y
			}
			var over bool
			var shown, bound string
			if d.absBound > 0 {
				over = worse > d.absBound
				shown, bound = fmt.Sprintf("%+.4f", worse), fmt.Sprintf("%.3f abs", d.absBound)
			} else {
				rel := ratio(worse, math.Abs(x))
				over = rel > d.bound
				shown, bound = fmt.Sprintf("%+.1f%%", 100*rel), fmt.Sprintf("%.0f%%", 100*d.bound)
			}
			flag := ""
			if over {
				flag = "  <-- beyond bound"
				ok = false
			}
			fmt.Printf("%-12s %-28s %14.6g %14.6g %10s %8s%s\n", s.name, d.name, x, y, shown, bound, flag)
		}
	}
	if ok {
		fmt.Println("every end-to-end metric of b is within its bound of a")
	}
	return ok
}
