// Command rekeylint is the project's multichecker: it runs the
// internal/lint analyzer suite over package patterns and exits non-zero
// on any finding, which is what makes it a CI gate.
//
// Usage:
//
//	go run ./cmd/rekeylint -ignores ./...   # whole module and every suppression (the CI gate)
//	go run ./cmd/rekeylint ./internal/fec   # one package
//
// Patterns are resolved relative to the module root (found by walking
// up from the working directory to go.mod); `dir/...` recurses,
// skipping testdata, and a pattern matching no packages is an error
// (exit 2), not a silent pass. Findings print as file:line:col:
// analyzer: message. A finding is silenced only by fixing it or by a
// reviewed `//rekeylint:ignore <reason>` comment on the same line or
// the line above -- an ignore without a reason is itself a finding,
// and so is an ignore that suppresses nothing.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

// fatal reports a failure of the run itself, as opposed to a finding.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rekeylint: %v\n", err)
	os.Exit(2)
}

func main() {
	ignores := flag.Bool("ignores", false, "print every //rekeylint:ignore with file:line, reason and whether it suppressed anything")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rekeylint [-ignores] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	modRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = true
	res, err := lint.Run(loader, flag.Args(), lint.DefaultAnalyzers())
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
