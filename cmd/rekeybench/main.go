// Command rekeybench regenerates the paper's evaluation figures.
//
// Usage:
//
//	rekeybench -list
//	rekeybench -exp f9-nacks-vs-rho
//	rekeybench -exp all [-quick] [-messages 25] [-seed 1]
//	rekeybench -scenario [-quick] [-scenario.out EXPERIMENTS.md]
//	rekeybench -scenario.check
//	rekeybench -strategy [-quick] [-strategy.out EXPERIMENTS.md]
//	rekeybench -strategy.check
//
// Each experiment prints one text table per figure: series blocks of
// "x<TAB>y" rows, the same series the corresponding paper figure plots.
// -scenario runs the adversarial churn suite (flash crowd, diurnal,
// partition-rejoin, adversarial leave) under a matrix of network
// impairments with invariant oracles active, and prints (or writes into
// the "Scenarios beyond the paper" section of -scenario.out) a markdown
// comparison table. -scenario.check runs the quick-scale matrix as a
// pass/fail regression guard for CI. -strategy races every registered
// key tree placement strategy through the same matrix and renders the
// per-strategy encryptions/bytes/latency comparison; -strategy.check is
// its CI guard.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// The markers delimit the generated tables inside the -*.out files.
const (
	scenarioBegin = "<!-- scenario-table:begin -->"
	scenarioEnd   = "<!-- scenario-table:end -->"
	strategyBegin = "<!-- strategy-table:begin -->"
	strategyEnd   = "<!-- strategy-table:end -->"
)

// spliceTable replaces the region between begin/end markers in outFile
// with the table, or prints table with the header when outFile is "".
func spliceTable(outFile, begin, end, header, table string) error {
	if outFile == "" {
		fmt.Printf("%s\n\n%s", header, table)
		return nil
	}
	raw, err := os.ReadFile(outFile)
	if err != nil {
		return err
	}
	doc := string(raw)
	lo := strings.Index(doc, begin)
	hi := strings.Index(doc, end)
	if lo < 0 || hi < 0 || hi < lo {
		return fmt.Errorf("%s: markers %q/%q not found", outFile, begin, end)
	}
	doc = doc[:lo+len(begin)] + "\n" + table + doc[hi:]
	if err := os.WriteFile(outFile, []byte(doc), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s; table written to %s\n", header, outFile)
	return nil
}

func runStrategySuite(opts experiments.Options, outFile string) error {
	start := time.Now()
	cells := experiments.RunStrategySuite(opts)
	table := experiments.StrategyMarkdown(cells)
	fail := 0
	for _, c := range cells {
		if !c.OK {
			fail++
		}
	}
	header := fmt.Sprintf("# strategy race — %d rows, %d failing, %v", len(cells), fail, time.Since(start).Round(time.Millisecond))
	if err := spliceTable(outFile, strategyBegin, strategyEnd, header, table); err != nil {
		return err
	}
	if fail > 0 {
		return fmt.Errorf("%d strategy rows failed", fail)
	}
	return nil
}

func runScenarioSuite(opts experiments.Options, outFile string) error {
	start := time.Now()
	cells := experiments.RunScenarioSuite(opts)
	table := experiments.ScenarioMarkdown(cells)
	fail := 0
	for _, c := range cells {
		if !c.OK {
			fail++
		}
	}
	header := fmt.Sprintf("# scenario suite — %d cells, %d failing, %v", len(cells), fail, time.Since(start).Round(time.Millisecond))
	if err := spliceTable(outFile, scenarioBegin, scenarioEnd, header, table); err != nil {
		return err
	}
	if fail > 0 {
		return fmt.Errorf("%d scenario cells failed", fail)
	}
	return nil
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("exp", "", "experiment ID to run, or 'all'")
		quick    = flag.Bool("quick", false, "reduced sweep sizes for a fast pass")
		messages = flag.Int("messages", 0, "rekey messages per configuration (default 25, 6 with -quick)")
		seed     = flag.Uint64("seed", 1, "random seed")
		scenario = flag.Bool("scenario", false, "run the adversarial churn scenario suite")
		scenOut  = flag.String("scenario.out", "", "write the scenario table into this file (between scenario-table markers)")
		scenChk  = flag.Bool("scenario.check", false, "quick-scale scenario matrix as a pass/fail regression guard")
		strat    = flag.Bool("strategy", false, "race every key tree placement strategy through the scenario matrix")
		stratOut = flag.String("strategy.out", "", "write the strategy table into this file (between strategy-table markers)")
		stratChk = flag.Bool("strategy.check", false, "quick-scale strategy race as a pass/fail regression guard")
	)
	flag.Parse()

	if *stratChk {
		if err := experiments.StrategyCheck(experiments.Options{Seed: *seed}); err != nil {
			fmt.Fprintf(os.Stderr, "rekeybench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("strategy check: all rows pass")
		return
	}
	if *strat {
		opts := experiments.Options{Seed: *seed, Quick: *quick}
		if err := runStrategySuite(opts, *stratOut); err != nil {
			fmt.Fprintf(os.Stderr, "rekeybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scenChk {
		if err := experiments.ScenarioCheck(experiments.Options{Seed: *seed}); err != nil {
			fmt.Fprintf(os.Stderr, "rekeybench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("scenario check: all cells pass")
		return
	}
	if *scenario {
		opts := experiments.Options{Seed: *seed, Quick: *quick}
		if err := runScenarioSuite(opts, *scenOut); err != nil {
			fmt.Fprintf(os.Stderr, "rekeybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-26s %-34s %s\n", e.ID, e.Paper, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opts := experiments.Options{Messages: *messages, Seed: *seed, Quick: *quick}
	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "rekeybench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		fmt.Printf("# %s — regenerates %s\n# %s\n", e.ID, e.Paper, e.Desc)
		figs, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rekeybench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, f := range figs {
			if err := experiments.Fprint(os.Stdout, f); err != nil {
				fmt.Fprintf(os.Stderr, "rekeybench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("# %s finished in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
