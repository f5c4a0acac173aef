package lint

// Run drives the suite over package patterns -- the one entry point
// cmd/rekeylint, the fixture runner and the driver tests share: load
// the targets, hand every analyzer one Pass over the loaded closure,
// then one suppression pass that both filters diagnostics through
// //rekeylint:ignore directives and audits the directives themselves
// (missing reasons and stale suppressions are findings).

import (
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// A Result is one full lint run: the surviving diagnostics plus the
// suppression audit (every //rekeylint:ignore seen, with usage).
type Result struct {
	Diags []Diagnostic
	// Ignores lists every well-formed //rekeylint:ignore directive in
	// the analyzed packages, sorted by position. Used reports whether
	// the directive suppressed at least one diagnostic in this run.
	Ignores []IgnoreEntry
}

// An IgnoreEntry is one //rekeylint:ignore directive.
type IgnoreEntry struct {
	Pos    token.Position
	Reason string
	Used   bool
}

// Run loads every package matched by patterns (relative to the
// loader's module root; "./..." walks the tree, "./dir" names one
// package, and a directory the loader has an override for loads under
// the overriding import path) and applies the analyzers, returning the
// surviving diagnostics sorted by position. A pattern that matches no
// packages is an error, not a silent pass -- a typo'd pattern must not
// green a CI gate. An ignore that suppresses nothing is always a
// finding.
func Run(loader *Loader, patterns []string, analyzers []*Analyzer) (*Result, error) {
	var raw []Diagnostic
	pass, err := newPass(loader, patterns, &raw)
	if err != nil {
		return nil, err
	}
	for _, a := range analyzers {
		pass.Analyzer = a
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s: %w", a.Name, err)
		}
	}

	idx := newIgnoreIndex()
	for _, pkg := range pass.targetPackages() {
		idx.collect(loader.Fset, pkg.Files, &raw)
	}
	diags := append(idx.filter(raw), idx.stale()...)
	sortDiags(diags)
	return &Result{Diags: diags, Ignores: idx.sortedEntries()}, nil
}

// newPass loads the packages patterns match and returns a pass over
// them that reports into diags.
func newPass(loader *Loader, patterns []string, diags *[]Diagnostic) (*Pass, error) {
	dirs, err := expandPatterns(loader.ModRoot, patterns)
	if err != nil {
		return nil, err
	}
	targets := make(map[*Package]bool)
	for _, dir := range dirs {
		path, err := loader.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkgs, err := loader.Packages(path)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			targets[pkg] = true
		}
	}
	return &Pass{
		Fset:    loader.Fset,
		All:     loader.Order,
		Targets: targets,
		Graph:   BuildCallGraph(loader.Order),
		Facts:   NewFactBase(),
		diags:   diags,
	}, nil
}

// --- suppression index ---

// ignoreIndex resolves //rekeylint:ignore directives and tracks which
// of them actually suppressed something.
type ignoreIndex struct {
	entries []*IgnoreEntry
	// byLine maps filename -> line -> entry for the suppression test.
	byLine map[string]map[int]*IgnoreEntry
}

func newIgnoreIndex() *ignoreIndex {
	return &ignoreIndex{byLine: make(map[string]map[int]*IgnoreEntry)}
}

// collect scans the files for ignore directives. A directive without a
// reason is appended to diags as a finding (a reviewed reason is what
// makes a suppression auditable) and does not suppress anything.
func (idx *ignoreIndex) collect(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				pos := fset.Position(c.Pos())
				if m := idx.byLine[pos.Filename]; m != nil && m[pos.Line] != nil {
					continue // same file loaded under package and xtest package
				}
				if reason == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "rekeylint",
						Message:  "rekeylint:ignore requires a reason, e.g. //rekeylint:ignore cold error path",
					})
					continue
				}
				e := &IgnoreEntry{Pos: pos, Reason: reason}
				idx.entries = append(idx.entries, e)
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = make(map[int]*IgnoreEntry)
					idx.byLine[pos.Filename] = m
				}
				m[pos.Line] = e
			}
		}
	}
}

// filter drops diagnostics suppressed by an ignore on the same line or
// the line immediately above, marking the consumed entries used.
func (idx *ignoreIndex) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "rekeylint" { // never suppress the suppression checks
			if m := idx.byLine[d.Pos.Filename]; m != nil {
				if e := m[d.Pos.Line]; e != nil {
					e.Used = true
					continue
				}
				if e := m[d.Pos.Line-1]; e != nil {
					e.Used = true
					continue
				}
			}
		}
		out = append(out, d)
	}
	return out
}

// stale returns a finding for every ignore that suppressed nothing:
// either the underlying issue was fixed (delete the comment) or the
// comment drifted away from the line it shields.
func (idx *ignoreIndex) stale() []Diagnostic {
	var out []Diagnostic
	for _, e := range idx.entries {
		if e.Used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.Pos,
			Analyzer: "rekeylint",
			Message:  fmt.Sprintf("stale rekeylint:ignore (suppresses nothing): %s", e.Reason),
		})
	}
	return out
}

func (idx *ignoreIndex) sortedEntries() []IgnoreEntry {
	out := make([]IgnoreEntry, len(idx.entries))
	for i, e := range idx.entries {
		out[i] = *e
	}
	// entries were collected in package order; sort by position for a
	// stable audit listing.
	sortIgnores(out)
	return out
}

// expandPatterns resolves package patterns to package directories. A
// pattern that resolves to nothing (typo'd path, tree with no Go
// files) is an error so the CI gate cannot silently lint nothing.
func expandPatterns(modRoot string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		matched := 0
		recursive := false
		cleaned := pat
		if rest, ok := strings.CutSuffix(cleaned, "/..."); ok {
			recursive = true
			cleaned = rest
			if cleaned == "." || cleaned == "" {
				cleaned = "."
			}
		}
		root := filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(cleaned, "./")))
		if !recursive {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
			}
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
				matched++
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if matched == 0 {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	return len(matches) > 0
}

// importPathFor maps a directory back to its import path: the path an
// override places it under, else its place in the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	for path, d := range l.Overrides {
		if d == dir {
			return path, nil
		}
	}
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("lint: %s is outside the module", dir)
	}
	return l.ModPath + "/" + rel, nil
}
