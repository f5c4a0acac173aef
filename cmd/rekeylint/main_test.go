package main_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestGate builds the rekeylint binary and checks its three exits: the
// repository itself is clean (exit 0), the known-bad module under
// testdata fails (exit 1) with its planted findings reported, and a
// pattern matching nothing is an error of the run (exit 2).
func TestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full multichecker; skipped with -short")
	}
	modRoot, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "rekeylint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rekeylint")
	build.Dir = modRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rekeylint: %v\n%s", err, out)
	}

	t.Run("repo-clean", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = modRoot
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rekeylint on the repository: %v\n%s", err, out)
		}
	})

	t.Run("badrepo-fails", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = filepath.Join(modRoot, "internal", "lint", "testdata", "badrepo")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("rekeylint on badrepo: want non-zero exit, got err=%v\n%s", err, out)
		}
		if ee.ExitCode() != 1 {
			t.Fatalf("rekeylint on badrepo: want exit 1, got %d\n%s", ee.ExitCode(), out)
		}
		text := string(out)
		for _, frag := range []string{"math/rand", "ErrBoom is compared with =="} {
			if !strings.Contains(text, frag) {
				t.Errorf("badrepo output missing %q:\n%s", frag, text)
			}
		}
	})

	t.Run("zero-match-pattern-errors", func(t *testing.T) {
		cmd := exec.Command(bin, "./no/such/dir")
		cmd.Dir = modRoot
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("zero-match pattern: want exit 2, got err=%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "matched no packages") {
			t.Errorf("zero-match output missing explanation:\n%s", out)
		}
	})

	t.Run("ignores-audit", func(t *testing.T) {
		cmd := exec.Command(bin, "-ignores", "./...")
		cmd.Dir = modRoot
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rekeylint -ignores: %v\n%s", err, out)
		}
		text := string(out)
		if n := strings.Count(text, "oracle.go"); n != 5 || strings.Count(text, "[used]") != 5 {
			t.Errorf("-ignores output: want exactly the five used oracle.go keyflow suppressions:\n%s", text)
		}
		if strings.Contains(text, "STALE") {
			t.Errorf("-ignores reports a stale suppression:\n%s", text)
		}
	})
}
