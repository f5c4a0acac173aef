package lint

// errsentinel: the typed-error invariant from the PR-2 Member.Ingest
// redesign. ErrBadPacket, ErrWrongMessage and ErrStale (and the other
// package sentinels: ErrBadTag, ErrShortBlock, ErrNoChange) are
// returned wrapped -- fmt.Errorf("%w: ...", ErrBadPacket) -- so a ==
// comparison silently stops matching the moment a call site adds
// context. errors.Is is the only correct dispatch; this analyzer bans
// == / != and switch-case comparisons against any package-level `Err*`
// sentinel, in tests too (tests were where the last == holdouts hid).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrSentinel bans direct comparisons against sentinel error values.
var ErrSentinel = &Analyzer{
	Name: "errsentinel",
	Run:  runErrSentinel,
}

func runErrSentinel(pass *Pass) error {
	for _, pkg := range pass.targetPackages() {
		checkErrSentinel(pass, pkg)
	}
	return nil
}

func checkErrSentinel(pass *Pass, pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				s := sentinelVar(info, x.X)
				if s == nil {
					s = sentinelVar(info, x.Y)
				}
				if s != nil {
					pass.Reportf(x.Pos(), "%s is compared with %s; sentinels are returned wrapped, use errors.Is", s.Name(), x.Op)
				}
			case *ast.SwitchStmt:
				if x.Tag == nil {
					return true
				}
				tv, ok := info.Types[x.Tag]
				if !ok || !types.Identical(tv.Type, errorType) {
					return true
				}
				for _, stmt := range x.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if s := sentinelVar(info, e); s != nil {
							pass.Reportf(e.Pos(), "switch case compares %s with ==; sentinels are returned wrapped, use errors.Is", s.Name())
						}
					}
				}
			}
			return true
		})
	}
}

// sentinelVar resolves e to a package-level error variable named Err*.
func sentinelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil // locals named Err* are not sentinels
	}
	if !types.Identical(v.Type(), errorType) {
		return nil
	}
	return v
}
