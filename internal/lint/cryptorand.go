package lint

// cryptorand: the key-material invariant from the PR-3 batched-CSPRNG
// work. Every key the system hands out flows from internal/keys --
// crypto/rand seeding an AES-CTR DRBG, or the explicitly-labelled
// deterministic splitmix64 generator for tests and experiments. A
// stray math/rand (or a DRBG seeded from the wall clock) in a key path
// silently downgrades key material to guessable; this analyzer makes
// that a build failure instead of a review catch.

import (
	"go/ast"
	"go/types"
	"strings"
)

// cryptorandRestricted lists the import-path suffixes of key-material
// packages. The module root package (the rekey server and member) is
// restricted too; simulation-side packages (protocol, netsim,
// workload) legitimately use math/rand for loss processes.
var cryptorandRestricted = []string{
	"internal/keys",
	"internal/keytree",
	"internal/gf256",
	"internal/fec",
}

// cryptorandInjectedOnly lists packages whose entropy must arrive
// through an injected keys.Generator rather than a direct crypto/rand
// read: the key tree draws every key from the keys.Generator it was
// built with, and a private crypto/rand call would bypass the
// deterministic generators that the differential, golden and fuzz
// suites rely on -- silently, since the output would still look random. internal/keys
// itself is the one sanctioned crypto/rand consumer.
var cryptorandInjectedOnly = []string{
	"internal/keytree",
}

// Cryptorand forbids math/rand and time-seeded randomness in key-path
// packages. Test files are exempt: deterministic fixtures are the
// point there.
var Cryptorand = &Analyzer{
	Name: "cryptorand",
	Run:  runCryptorand,
}

func cryptorandInjectedOnlyApplies(path string) bool {
	for _, suf := range cryptorandInjectedOnly {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

func cryptorandApplies(path string) bool {
	if !strings.Contains(path, "/") {
		return true // the module root package holds rekey.go and member.go
	}
	for _, suf := range cryptorandRestricted {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

func runCryptorand(pass *Pass) error {
	for _, pkg := range pass.targetPackages() {
		if cryptorandApplies(pkg.Path) {
			checkCryptorand(pass, pkg)
		}
	}
	return nil
}

func checkCryptorand(pass *Pass, pkg *Package) {
	for _, f := range pkg.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "key-path package imports %s; key material must come from the internal/keys CSPRNG", path)
			}
			if path == "crypto/rand" && cryptorandInjectedOnlyApplies(pkg.Path) {
				pass.Reportf(imp.Pos(), "package imports crypto/rand directly; draw entropy from the injected keys.Generator instead")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSeedingCall(call) {
				return true
			}
			for _, arg := range call.Args {
				if usesWallClock(pkg.Info, arg) {
					pass.Reportf(call.Pos(), "seeding randomness from the wall clock; key-path seeds must be explicit or come from crypto/rand")
					break
				}
			}
			return true
		})
	}
}

// isSeedingCall reports whether the call plants a seed into a
// generator: Seed / NewSource / NewPCG / NewChaCha8 / any
// *Deterministic* constructor.
func isSeedingCall(call *ast.CallExpr) bool {
	var name string
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return name == "Seed" || name == "NewSource" || name == "NewPCG" ||
		name == "NewChaCha8" || strings.Contains(name, "Deterministic")
}

// usesWallClock reports whether the expression contains a call to
// time.Now (e.g. time.Now().UnixNano() as a seed).
func usesWallClock(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		if obj := info.Uses[sel.Sel]; obj != nil && pkgPathOf(obj) == "time" {
			found = true
			return false
		}
		return true
	})
	return found
}
