package lint

// This file is the module-wide half of the rekeylint framework. The
// original analyzers (lint.go, run.go) are intraprocedural: one
// type-checked package in, diagnostics out. The keyflow, lockorder and
// escapes analyzers need to see the whole module at once -- a secret
// key leaks through a helper in another package, a lock cycle spans
// udptrans.Server and rekey.Server -- so they run as ModuleAnalyzers
// over a ModulePass that carries every loaded package in dependency
// order, a static call graph (callgraph.go) and a cross-package facts
// layer.
//
// Facts follow the golang.org/x/tools/go/analysis model in miniature:
// while analyzing package P, an analyzer may attach a named fact to any
// object P exports (or uses internally); when a dependent package Q is
// analyzed later, facts attached to the objects Q imports are visible.
// Because Loader.Order is topologically sorted dependencies-first, a
// single forward walk gives every package the facts of everything it
// imports -- no fixpoint across packages is needed (within a package,
// analyzers iterate locally as required).

import (
	"fmt"
	"go/token"
	"go/types"
)

// A ModuleAnalyzer is one named check over the whole loaded module.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects the module behind mp and reports findings via
	// mp.Reportf / mp.ReportAt. A returned error aborts the lint run.
	Run func(mp *ModulePass) error
}

// A ModulePass carries the whole loaded module through one module
// analyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	ModRoot  string
	ModPath  string

	// All lists every module package the loader type-checked --
	// analysis targets and their module-internal dependencies --
	// topologically sorted dependencies-first.
	All []*Package
	// Targets is the subset of All matched by the run's patterns.
	// Analyzers compute facts over All but report findings only in
	// targets, mirroring how a partial `rekeylint ./internal/keytree`
	// run should not complain about unrelated packages.
	Targets map[*Package]bool

	// Graph is the module's static call graph.
	Graph *CallGraph
	// Facts is the cross-package fact store, shared by all module
	// analyzers in one run (names are prefixed per analyzer).
	Facts *FactBase

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.ReportAt(mp.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an already-resolved position. The
// escapes analyzer uses it: compiler diagnostics arrive as file:line
// strings, not token.Pos values inside the FileSet.
func (mp *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      pos,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFilename reports whether the file path names a _test.go file.
func IsTestFilename(name string) bool {
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

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

// DefaultModuleAnalyzers returns the module-wide rekeylint suite; with
// DefaultAnalyzers it forms the full CI gate.
func DefaultModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		KeyFlow,
		LockOrder,
		Escapes,
	}
}
