// Package lint is rekeylint: a project-native static-analysis suite
// that machine-checks the invariants this repository's crypto and
// concurrency work depends on and that no cheaper gate -- the compiler,
// `go vet`, the -race suites, a unit test -- can see. DESIGN.md
// "Statically enforced invariants" holds the per-analyzer argument.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Reportf, per-object facts and analysistest-style
// "// want" fixtures) but is self-contained on the standard library's
// go/ast, go/types and go/importer packages, so the repository keeps
// its zero-dependency module while still getting a real multichecker.
// Packages are loaded and type-checked by Loader (load.go); Run
// (run.go) expands `./...` patterns, hands every analyzer one Pass over
// the loaded module, applies `//rekeylint:ignore <reason>` suppressions
// and returns the surviving diagnostics.
//
// The analyzer set (one file each):
//
//   - cryptorand:  key-path packages must not use math/rand or
//     time-seeded randomness (crypto material comes from the batched
//     CSPRNG in internal/keys only).
//   - errsentinel: sentinel errors are matched with errors.Is, never
//     compared with == / != or switched on.
//   - keyflow:     secret key material never reaches a log, error,
//     panic or trace sink, nor a variable-time comparison
//     (interprocedural, through per-function facts).
//   - locks:       fields annotated "guarded by <mu>" are only touched
//     by declarations that acquire that sibling mutex (the *Locked
//     name suffix marks caller-held locks), and every nested mutex
//     acquisition goes strictly up one rank table.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over the loaded module.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run inspects the module behind pass and reports findings via
	// pass.Reportf / pass.ReportAt. A returned error aborts the whole
	// lint run (it means the analyzer itself failed, not that the code
	// is bad).
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, positioned in the linted source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries the loaded module through one analyzer. A check that
// needs one package at a time (cryptorand, errsentinel) ranges over
// targetPackages; one that needs the whole module (a secret key leaks
// through a helper in another package, a lock nesting spans
// udptrans.Server and rekey.Server) computes over All and reports in
// targets only.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	// All lists every module package the loader type-checked --
	// analysis targets and their module-internal dependencies --
	// topologically sorted dependencies-first.
	All []*Package
	// Targets is the subset of All matched by the run's patterns.
	// Analyzers compute facts over All but report findings only in
	// targets, mirroring how a partial `rekeylint ./internal/keytree`
	// run should not complain about unrelated packages.
	Targets map[*Package]bool

	// Graph is the module's static call graph (callgraph.go).
	Graph *CallGraph
	// Facts is the cross-package fact store, shared by all analyzers
	// in one run (names are prefixed per analyzer).
	Facts *FactBase

	diags *[]Diagnostic
}

// targetPackages returns the target packages, dependencies first.
func (p *Pass) targetPackages() []*Package {
	var out []*Package
	for _, pkg := range p.All {
		if p.Targets[pkg] {
			out = append(out, pkg)
		}
	}
	return out
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an already-resolved position.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file is a _test.go file. Several
// analyzers exempt tests (deterministic seeds and direct field pokes
// are fine there); errsentinel deliberately does not.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return IsTestFilename(p.Fset.Position(f.Pos()).Filename)
}

// IsTestFilename reports whether the file path names a _test.go file.
func IsTestFilename(name string) bool { return strings.HasSuffix(name, "_test.go") }

// Facts follow the golang.org/x/tools/go/analysis model in miniature:
// while analyzing package P, an analyzer may attach a named fact to any
// object P exports (or uses internally); when a dependent package Q is
// analyzed later, facts attached to the objects Q imports are visible.
// Because Loader.Order is topologically sorted dependencies-first, a
// single forward walk gives every package the facts of everything it
// imports -- no fixpoint across packages is needed (within a package,
// analyzers iterate locally as required).

// A FactBase stores per-object facts keyed by (object, fact name).
type FactBase struct {
	m map[factKey]any
}

type factKey struct {
	obj  types.Object
	name string
}

// NewFactBase returns an empty fact store.
func NewFactBase() *FactBase { return &FactBase{m: make(map[factKey]any)} }

// Set attaches fact name=v to obj, overwriting any previous value.
func (fb *FactBase) Set(obj types.Object, name string, v any) {
	fb.m[factKey{obj, name}] = v
}

// Get returns the fact name attached to obj, if any.
func (fb *FactBase) Get(obj types.Object, name string) (any, bool) {
	v, ok := fb.m[factKey{obj, name}]
	return v, ok
}

// DefaultAnalyzers returns the full rekeylint suite, the set
// cmd/rekeylint runs as a CI gate.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Cryptorand,
		ErrSentinel,
		KeyFlow,
		Locks,
	}
}

// ignoreDirective matches one //rekeylint:ignore comment and captures
// the (required) reason; the index itself lives in run.go.
const ignorePrefix = "rekeylint:ignore"

// declassifyReason returns the reason attached to a
// //rekeylint:declassify directive on the declaration, and whether the
// directive is present at all. Declassify is keyflow's only sanitizer
// besides crypto/subtle: the function's internal flows are accepted as
// reviewed and its results are treated as public. Like ignore, the
// directive requires a reason so every trust decision is auditable.
func declassifyReason(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, "rekeylint:declassify"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// sortIgnores orders ignore entries by file, line.
func sortIgnores(entries []IgnoreEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
}

// sortDiags orders findings by file, line, column, analyzer, message.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- small shared type/AST helpers used by several analyzers ---

var errorType = types.Universe.Lookup("error").Type()

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// chainRoot returns the identifier at the base of a selector/index
// chain (r in r.trace.buf[i]), or nil when the chain is rooted in a
// call or other non-identifier expression.
func chainRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// pkgPathOf returns the import path of the package declaring obj, or ""
// for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
