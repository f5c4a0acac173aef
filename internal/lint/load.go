package lint

// This file is rekeylint's package loader: a module-aware wrapper over
// go/build (file selection, build tags), go/parser and go/types that
// type-checks packages of this module without golang.org/x/tools. The
// container this repo builds in has no module proxy access, so standard
// library dependencies are type-checked from GOROOT source via
// go/importer's "source" mode -- one shared, lazily-seeded importer for
// the whole process -- and module-internal imports are resolved
// recursively by the loader itself.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was loaded under. External
	// test packages ("package foo_test" files) load as Path+".test".
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Loader loads and type-checks packages of one module.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string
	// Overrides maps an import path to a directory, letting fixtures
	// masquerade as key-path packages (e.g. repro/internal/obs).
	Overrides map[string]string
	// IncludeTests adds in-package _test.go files to each package and
	// loads external test packages alongside.
	IncludeTests bool

	// Order lists every module package this loader has type-checked, in
	// completion order -- imports finish before their importers, so the
	// slice is topologically sorted dependencies-first. Module analyses
	// (keyflow's facts layer, the locks call graph) walk it to see
	// the whole module at once with per-package facts already computed.
	Order []*Package

	ctxt    build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("lint: no go.mod found above working directory")
		}
		dir = parent
	}
}

// modulePath reads the module path from go.mod.
func modulePath(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", modRoot)
}

// NewLoader returns a loader for the module rooted at modRoot.
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(modRoot)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	// The GOROOT source importer cannot process cgo-using variants of
	// net/os; the pure-Go fallbacks type-check identically for our
	// purposes, so analyze the tree as if CGO_ENABLED=0.
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:      token.NewFileSet(),
		ModRoot:   modRoot,
		ModPath:   modPath,
		Overrides: make(map[string]string),
		ctxt:      ctxt,
		pkgs:      make(map[string]*Package),
		loading:   make(map[string]bool),
	}, nil
}

// stdImporter is the process-wide standard-library importer, shared by
// every Loader so GOROOT source is type-checked at most once per
// process. go/types drives it single-threaded per Check call; the
// mutex serialises across loaders.
var (
	stdMu       sync.Mutex
	stdImporter types.ImporterFrom
)

func importStd(path string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	if stdImporter == nil {
		// The source importer consults build.Default; cgo-tagged files
		// in net and os/user do not type-check offline.
		build.Default.CgoEnabled = false
		stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	}
	return stdImporter.ImportFrom(path, "", 0)
}

// dirFor maps a module import path to its directory, honoring
// overrides.
func (l *Loader) dirFor(path string) (string, bool) {
	if dir, ok := l.Overrides[path]; ok {
		return dir, true
	}
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom for the type checker: module
// (and override) paths load through the loader, everything else through
// the shared GOROOT source importer.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return importStd(path)
}

// Packages loads the package at the given import path and, when
// IncludeTests is set and the directory has "package foo_test" files,
// its external test package as well.
func (l *Loader) Packages(path string) ([]*Package, error) {
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	out := []*Package{pkg}
	if l.IncludeTests {
		xt, err := l.loadXTest(path)
		if err != nil {
			return nil, err
		}
		if xt != nil {
			out = append(out, xt)
		}
	}
	return out, nil
}

// load loads (or returns the cached) package at an import path the
// loader can place in the module or overrides.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is outside module %q", path, l.ModPath)
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	var files []string
	switch {
	case err == nil:
		files = append(files, bp.GoFiles...)
		if l.IncludeTests {
			files = append(files, bp.TestGoFiles...)
		}
	case isNoGoError(err) && l.IncludeTests && bp != nil && len(bp.TestGoFiles) > 0:
		// Test-only directories (e.g. internal/e2e) still deserve
		// linting; the in-package test files form the package.
		files = bp.TestGoFiles
	default:
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.Order = append(l.Order, pkg)
	return pkg, nil
}

// loadXTest loads the external test package of path, or nil if the
// directory has no XTestGoFiles.
func (l *Loader) loadXTest(path string) (*Package, error) {
	xpath := path + ".test"
	if pkg, ok := l.pkgs[xpath]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil && !isNoGoError(err) {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	if bp == nil || len(bp.XTestGoFiles) == 0 {
		return nil, nil
	}
	pkg, err := l.check(xpath, dir, bp.XTestGoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[xpath] = pkg
	l.Order = append(l.Order, pkg)
	return pkg, nil
}

func isNoGoError(err error) bool {
	var ng *build.NoGoError
	return errors.As(err, &ng)
}

// check parses and type-checks one set of files as a package.
func (l *Loader) check(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		// Report at most a few: a broken package should fail the lint
		// run loudly, not drown it.
		max := len(typeErrs)
		if max > 5 {
			max = 5
		}
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, errors.Join(typeErrs[:max]...))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}, nil
}
