package lint

// ctxfirst: the cancellation-plumbing invariant from the PR-2 context
// work (Distribute and Client.Run take ctx; the daemons wire signal
// contexts through). Two rules, both function-local and conservative:
// a context.Context parameter anywhere but first is always wrong; and
// an exported function whose own body visibly blocks -- spawns
// goroutines, selects, sends or receives on channels, sleeps, or waits
// on a WaitGroup -- must accept a context so its caller can bound it.
// Close methods are exempt (io.Closer fixes that signature), as are
// test files.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFirst enforces context.Context placement and presence on exported
// blocking APIs.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "exported blocking APIs take context.Context as their first parameter",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) error {
	for _, pkg := range pass.targetPackages() {
		for _, f := range pkg.Files {
			if pass.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkCtxPlacement(pass, pkg.Info, fn)
				if !fn.Name.IsExported() || fn.Name.Name == "Close" {
					continue
				}
				if hasCtxFirst(pkg.Info, fn) {
					continue
				}
				if pos, what := blockingConstruct(pkg.Info, fn.Body); pos.IsValid() {
					pass.Reportf(fn.Pos(), "exported %s blocks (%s) but does not take a context.Context first parameter", fn.Name.Name, what)
				}
			}
		}
	}
	return nil
}

// checkCtxPlacement flags a context.Context parameter at any position
// but the first (exported or not: a misplaced ctx is wrong everywhere).
func checkCtxPlacement(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	idx := 0
	for _, field := range fn.Type.Params.List {
		tv := info.Types[field.Type]
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(tv.Type) && idx > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter of %s", fn.Name.Name)
		}
		idx += n
	}
}

func hasCtxFirst(info *types.Info, fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) == 0 {
		return false
	}
	return isContextType(info.Types[params[0].Type].Type)
}

// blockingConstruct scans a body (not descending into closures, which
// may never run in this call) for constructs that block or spawn.
func blockingConstruct(info *types.Info, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			pos, what = x.Pos(), "spawns goroutines"
		case *ast.SelectStmt:
			pos, what = x.Pos(), "selects on channels"
		case *ast.SendStmt:
			pos, what = x.Pos(), "sends on a channel"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pos, what = x.Pos(), "receives from a channel"
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pos, what = x.Pos(), "ranges over a channel"
				}
			}
		case *ast.CallExpr:
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
				obj := info.Uses[sel.Sel]
				switch {
				case obj != nil && pkgPathOf(obj) == "time" && sel.Sel.Name == "Sleep":
					pos, what = x.Pos(), "calls time.Sleep"
				case sel.Sel.Name == "Wait" && isWaitGroup(info, sel.X):
					pos, what = x.Pos(), "waits on a sync.WaitGroup"
				}
			}
		}
		return !pos.IsValid()
	})
	return pos, what
}

func isWaitGroup(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && pkgPathOf(obj) == "sync"
}
