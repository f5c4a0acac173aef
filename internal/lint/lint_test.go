package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// One fixture run per analyzer: positive and negative cases live in
// the testdata packages as `// want` comments.

func TestCryptorandRestricted(t *testing.T) {
	linttest.Run(t, lint.Cryptorand, linttest.Fixture{
		Dir:          "testdata/cryptorand/keys",
		Path:         "repro/internal/keys",
		IncludeTests: true,
	})
}

func TestCryptorandInjectedOnly(t *testing.T) {
	linttest.Run(t, lint.Cryptorand, linttest.Fixture{
		Dir:  "testdata/cryptorand/strategy",
		Path: "repro/internal/keytree",
	})
}

func TestCryptorandUnrestricted(t *testing.T) {
	linttest.Run(t, lint.Cryptorand, linttest.Fixture{
		Dir:  "testdata/cryptorand/sim",
		Path: "repro/internal/sim",
	})
}

func TestCtxFirst(t *testing.T) {
	linttest.Run(t, lint.CtxFirst, linttest.Fixture{
		Dir:  "testdata/ctxfirst",
		Path: "repro/internal/cf",
	})
}

func TestErrSentinel(t *testing.T) {
	linttest.Run(t, lint.ErrSentinel, linttest.Fixture{
		Dir:          "testdata/errsentinel",
		Path:         "repro/internal/es",
		IncludeTests: true,
	})
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, lint.GuardedBy, linttest.Fixture{
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
	linttest.Run(t, lint.KeyFlow, linttest.Fixture{
		Dir:  "testdata/keyflow/app",
		Path: "repro/internal/app",
		Overrides: map[string]string{
			"repro/internal/keys":   "testdata/keyflow/keys",
			"repro/internal/helper": "testdata/keyflow/helper",
		},
	})
}

func TestLockOrderDAG(t *testing.T) {
	linttest.Run(t, lint.LockOrder, linttest.Fixture{
		Dir:  "testdata/lockorder/dag",
		Path: "repro/internal/dag",
	})
}

func TestLockOrderCycle(t *testing.T) {
	linttest.Run(t, lint.LockOrder, linttest.Fixture{
		Dir:  "testdata/lockorder/cycle",
		Path: "repro/internal/cycle",
	})
}
