package lint_test

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

// One fixture run per analyzer: positive and negative cases live in
// the testdata packages as `// want` comments.

func TestCryptorandRestricted(t *testing.T) {
	runFixture(t, lint.Cryptorand, fixture{
		Dir:          "testdata/cryptorand/keys",
		Path:         "repro/internal/keys",
		IncludeTests: true,
	})
}

func TestCryptorandInjectedOnly(t *testing.T) {
	runFixture(t, lint.Cryptorand, fixture{
		Dir:  "testdata/cryptorand/keytree",
		Path: "repro/internal/keytree",
	})
}

func TestCryptorandUnrestricted(t *testing.T) {
	runFixture(t, lint.Cryptorand, fixture{
		Dir:  "testdata/cryptorand/sim",
		Path: "repro/internal/sim",
	})
}

func TestErrSentinel(t *testing.T) {
	runFixture(t, lint.ErrSentinel, fixture{
		Dir:          "testdata/errsentinel",
		Path:         "repro/internal/es",
		IncludeTests: true,
	})
}

func TestGuardedBy(t *testing.T) {
	runFixture(t, lint.Locks, fixture{
		Dir:  "testdata/guardedby",
		Path: "repro/internal/gb",
	})
}

// TestIgnoreRequiresReason checks the suppression mechanism directly:
// a bare //rekeylint:ignore suppresses nothing and is itself reported.
func TestIgnoreRequiresReason(t *testing.T) {
	modRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(loader, []string{"./internal/lint/testdata/ignores"}, []*lint.Analyzer{lint.ErrSentinel})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (missing reason + unsuppressed comparison): %v", len(res.Diags), res.Diags)
	}
	var sawReason, sawCompare bool
	for _, d := range res.Diags {
		switch d.Analyzer {
		case "rekeylint":
			sawReason = true
		case "errsentinel":
			sawCompare = true
		}
	}
	if !sawReason || !sawCompare {
		t.Fatalf("diagnostics missing expected pair: %v", res.Diags)
	}
}

func TestKeyFlow(t *testing.T) {
	runFixture(t, lint.KeyFlow, fixture{
		Dir:  "testdata/keyflow/app",
		Path: "repro/internal/app",
		Overrides: map[string]string{
			"repro/internal/keys":   "testdata/keyflow/keys",
			"repro/internal/helper": "testdata/keyflow/helper",
		},
	})
}

func TestLockOrderRank(t *testing.T) {
	runFixture(t, lint.Locks, fixture{
		Dir:  "testdata/lockorder/rekey",
		Path: "repro/internal/lockorder/rekey",
	})
}

func TestLockOrderCycle(t *testing.T) {
	runFixture(t, lint.Locks, fixture{
		Dir:  "testdata/lockorder/cycle",
		Path: "repro/internal/cycle",
	})
}

// A fixture is one testdata package to analyze.
type fixture struct {
	// Dir is the fixture directory, relative to the test's working
	// directory (e.g. "testdata/guardedby").
	Dir string
	// Path is the import path the fixture loads under. Path-scoped
	// analyzers key off suffixes like internal/keys, so fixtures pick
	// paths accordingly.
	Path string
	// Overrides maps further synthetic import paths to directories, for
	// fixtures that import a stand-in package (the keyflow fixture
	// importing a fake repro/internal/keys, say).
	Overrides map[string]string
	// IncludeTests loads the fixture's _test.go files too, for
	// exercising test-file exemptions.
	IncludeTests bool
}

// want is one expectation parsed from a `// want "re"` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// runFixture analyzes the fixture with a and fails t on any mismatch
// between reported diagnostics and the fixture's want comments -- the
// analysistest idiom, on the project's own loader so fixtures can
// masquerade as key-path packages via synthetic import paths. The
// fixture package and its overrides form the loaded closure; only the
// fixture package itself is a reporting target, mirroring a partial
// rekeylint run.
func runFixture(t *testing.T, a *lint.Analyzer, fx fixture) {
	t.Helper()
	modRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = fx.IncludeTests
	dir, err := filepath.Abs(fx.Dir)
	if err != nil {
		t.Fatal(err)
	}
	loader.Overrides[fx.Path] = dir
	for p, d := range fx.Overrides {
		abs, err := filepath.Abs(d)
		if err != nil {
			t.Fatal(err)
		}
		loader.Overrides[p] = abs
	}
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(loader, []string{"./" + filepath.ToSlash(rel)}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("fixture %s: %v", fx.Dir, err)
	}

	var wants []*want
	for _, pkg := range loader.Order {
		if pkg.Dir != dir {
			continue
		}
		ws, err := collectWants(loader.Fset, pkg)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, ws...)
	}
	for _, d := range res.Diags {
		if !consume(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// consume marks the first unmatched want on the diagnostic's line whose
// regexp matches its message.
func consume(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRe extracts the payload of a want comment; the quoted regexps
// are then pulled out one Go string literal at a time.
var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(.*)`)
	literalRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

func collectWants(fset *token.FileSet, pkg *lint.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lits := literalRe.FindAllString(m[1], -1)
				if len(lits) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, lit := range lits {
					s, err := strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: s})
				}
			}
		}
	}
	return wants, nil
}
