// Command rekeylint is the project's multichecker: it runs the
// internal/lint analyzer suite over package patterns and exits non-zero
// on any finding, which is what makes it a CI gate.
//
// Usage:
//
//	go run ./cmd/rekeylint -ignores ./...   # whole module and every suppression (the CI gate)
//	go run ./cmd/rekeylint ./internal/fec   # one package
//	go run ./cmd/rekeylint -list            # show the analyzer suite
//	go run ./cmd/rekeylint -only keyflow ./...
//
// Patterns are resolved relative to the module root (found by walking
// up from the working directory to go.mod); `dir/...` recurses,
// skipping testdata, and a pattern matching no packages is an error
// (exit 2), not a silent pass. Findings print as file:line:col:
// analyzer: message. A finding is silenced only by fixing it or by a
// reviewed `//rekeylint:ignore <reason>` comment on the same line or
// the line above -- an ignore without a reason is itself a finding,
// and when the full suite runs, so is an ignore that suppresses
// nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// fatal reports a failure of the run itself, as opposed to a finding.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rekeylint: %v\n", err)
	os.Exit(2)
}

func main() {
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	ignores := flag.Bool("ignores", false, "print every //rekeylint:ignore with file:line, reason and whether it suppressed anything")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rekeylint [-list] [-only names] [-ignores] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var as []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				as = append(as, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "rekeylint: unknown analyzer %q (see -list)\n", name)
			os.Exit(2)
		}
		analyzers = as
	}

	modRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = true
	res, err := lint.Run(loader, flag.Args(), analyzers)
	if err != nil {
		fatal(err)
	}
	if *ignores {
		for _, e := range res.Ignores {
			status := "used"
			if !e.Used {
				status = "STALE"
			}
			fmt.Printf("%s:%d: [%s] %s\n", e.Pos.Filename, e.Pos.Line, status, e.Reason)
		}
		fmt.Fprintf(os.Stderr, "rekeylint: %d ignore(s)\n", len(res.Ignores))
	}
	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "rekeylint: %d finding(s)\n", len(res.Diags))
		os.Exit(1)
	}
}
