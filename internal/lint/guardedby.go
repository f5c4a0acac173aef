package lint

// guardedby: the lock-discipline invariant behind the Server, Member
// and udptrans state machines. A struct field annotated
// `// guarded by mu` may only be touched by functions that visibly
// take that mutex, or by helpers that declare the caller holds it via
// the *Locked name suffix. The check is function-local and textual on
// purpose: it will not prove absence of races (the race detector does
// that at runtime), but it catches the common regression -- a new
// method reading rm.coder or s.tree without locking -- at build time.

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// GuardedBy enforces `// guarded by <mu>` field annotations.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated `// guarded by <mu>` are only accessed under that mutex or in *Locked helpers",
	Run:  runGuardedBy,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

func runGuardedBy(pass *Pass) error {
	for _, pkg := range pass.targetPackages() {
		checkGuardedBy(pass, pkg)
	}
	return nil
}

func checkGuardedBy(pass *Pass, pkg *Package) {
	guarded := collectGuardedFields(pkg)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pkg.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue // the suffix is the documented caller-holds-lock contract
			}
			checkGuardedAccesses(pass, pkg.Info, fn, guarded)
		}
	}
}

// collectGuardedFields maps each annotated field object to the name of
// the mutex that guards it (the last dot component of the annotation,
// so `guarded by s.mu` and `guarded by mu` both mean the sibling field
// mu).
func collectGuardedFields(pkg *Package) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := annotationMutex(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

func annotationMutex(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			name := m[1]
			if i := strings.LastIndex(name, "."); i >= 0 {
				name = name[i+1:]
			}
			return name
		}
	}
	return ""
}

// checkGuardedAccesses reports accesses to guarded fields in fn unless
// the body visibly locks the guarding mutex. Accesses through a local
// variable that fn itself built from a composite literal are exempt:
// the value is not shared yet, so constructors need no lock.
func checkGuardedAccesses(pass *Pass, info *types.Info, fn *ast.FuncDecl, guarded map[types.Object]string) {
	fresh := freshLocals(info, fn)
	var accesses []struct {
		sel *ast.SelectorExpr
		mu  string
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		mu, ok := guarded[fieldObject(selection)]
		if !ok {
			return true
		}
		if root := chainRoot(sel.X); root != nil {
			if obj := info.Uses[root]; obj != nil && fresh[obj] {
				return true
			}
		}
		accesses = append(accesses, struct {
			sel *ast.SelectorExpr
			mu  string
		}{sel, mu})
		return true
	})
	if len(accesses) == 0 {
		return
	}
	locked := lockedMutexes(fn.Body)
	for _, a := range accesses {
		if locked[a.mu] {
			continue
		}
		pass.Reportf(a.sel.Sel.Pos(), "%s is guarded by %s but %s does not lock it; lock %s or rename the helper with a Locked suffix",
			a.sel.Sel.Name, a.mu, fn.Name.Name, a.mu)
	}
}

// fieldObject returns the object of the selected field.
func fieldObject(selection *types.Selection) types.Object {
	return selection.Obj()
}

// freshLocals returns the set of local variables fn initialises from a
// composite literal (`v := T{...}` or `v := &T{...}`), i.e. values that
// cannot yet be shared with another goroutine.
func freshLocals(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := unparen(as.Rhs[i])
			if ue, ok := rhs.(*ast.UnaryExpr); ok {
				rhs = unparen(ue.X)
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// lockedMutexes scans the body for `<x>.<mu>.Lock()` / `.RLock()`
// calls and returns the set of mutex field names locked anywhere in
// the function (including inside closures handed to helpers).
func lockedMutexes(body *ast.BlockStmt) map[string]bool {
	locked := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch x := unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			locked[x.Sel.Name] = true
		case *ast.Ident:
			locked[x.Name] = true
		}
		return true
	})
	return locked
}
