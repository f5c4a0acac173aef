package lint

// locks: the lock discipline behind the Server, Member and udptrans
// state machines, on one typed walk of every mutex acquisition in the
// module. Every sync.Mutex / sync.RWMutex field or package-level var is
// a *lock class* named after its declaration site
// (rekey.Server.treeMu, obs.Registry.trace.mu). Two rules:
//
//  1. Guards. A struct field annotated `// guarded by mu` may only be
//     touched by a declaration that acquires the sibling mutex field
//     mu -- that *types.Var, not any mutex spelled mu -- or by a
//     helper whose *Locked name suffix says the caller holds it.
//     Closures count toward their enclosing declaration; values the
//     function itself just built from a composite literal are exempt.
//     The check is function-local: it will not prove absence of races
//     (the race detector does that on the schedules a test drives),
//     but it catches a new unlocked reader on a path no test races.
//
//  2. Order. Acquiring class B while class A is held -- directly, or
//     through statically resolved calls -- is a nesting edge A -> B.
//     Every edge must go strictly up lockRanks, so the graph is
//     acyclic by construction and same-class nesting is a finding; an
//     edge touching an unranked class is a finding too.
//
// The walk tracks held sets through straight-line code, clones them at
// branch boundaries (a conditionally-acquired lock never leaks into the
// fallthrough path), treats `defer mu.Unlock()` as held-to-end, and
// scans function literals with an empty held set of their own. Calls
// through interfaces and closure-typed variables are invisible to the
// call graph (callgraph.go); the race detector and the adversarial
// churn harness cover that dynamic remainder.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"strings"
)

// Locks enforces `// guarded by <mu>` annotations and the rank order
// of nested mutex acquisitions.
var Locks = &Analyzer{
	Name: "locks",
	Run:  runLocks,
}

// lockRanks pins the acquisition order of the repository's lock
// classes: a nesting edge (held -> acquired) must go strictly
// rank-upward, and both classes must be listed. Keep this table in sync
// with "The lock order" in DESIGN.md.
var lockRanks = map[string]int{
	"keyserverd.daemon.mu":  10,
	"rekey.Server.mu":       20,
	"udptrans.Server.mu":    30,
	"udptrans.Client.mu":    40,
	"rekey.Server.treeMu":   60,
	"rekey.Member.mu":       70,
	"rekey.RekeyMessage.mu": 80,
	"keys.RootVerifier.mu":  90,
	"obs.Registry.trace.mu": 110,
	"udptrans.rxBufList.mu": 120,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

// A lockEdge is one observed nesting: `to` acquired while `from` was
// held, at pos; via names the intermediate callee for edges found
// through the call graph ("" for direct acquisitions).
type lockEdge struct {
	from, to *types.Var
	pos      token.Position
	via      string
	inTarget bool
}

type heldCall struct {
	callee   *types.Func
	held     []*types.Var
	pos      token.Position
	inTarget bool
}

// A lockWalk is the module's acquisitions, gathered in one pass.
type lockWalk struct {
	pass *Pass
	// class maps each module mutex field/var to its display name.
	class map[*types.Var]string
	// taken[d] is every mutex d's body acquires, closures included.
	taken map[*ast.FuncDecl]map[*types.Var]bool
	// direct[f] is the set of classes f's body acquires outside
	// function literals (a literal often runs on its own goroutine).
	direct map[*types.Func]map[*types.Var]bool
	// calls records every statically-resolved call made while at
	// least one class was held.
	calls []heldCall
	// edges lists every nesting site; one class pair may recur.
	edges []lockEdge
}

func runLocks(pass *Pass) error {
	w := walkLocks(pass)
	w.checkGuards()
	w.checkOrder()
	return nil
}

// walkLocks scans every non-test function of the module and closes the
// nesting edges over the call graph.
func walkLocks(pass *Pass) *lockWalk {
	w := &lockWalk{
		pass:   pass,
		class:  make(map[*types.Var]string),
		taken:  make(map[*ast.FuncDecl]map[*types.Var]bool),
		direct: make(map[*types.Func]map[*types.Var]bool),
	}
	w.collectClasses()
	for _, pkg := range pass.All {
		for _, f := range pkg.Files {
			if pass.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w.taken[fd] = make(map[*types.Var]bool)
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				w.scanBody(pkg, fd, obj, fd.Body)
			}
		}
	}
	w.closeOverCalls()
	return w
}

// collectClasses names every sync.Mutex / sync.RWMutex declared by the
// module: struct fields (walking nested anonymous structs, so the obs
// registry's trace.mu gets its qualified name) and package-level vars.
func (w *lockWalk) collectClasses() {
	for _, pkg := range w.pass.All {
		display := pkg.Pkg.Name()
		if display == "main" {
			display = path.Base(strings.TrimSuffix(pkg.Path, ".test"))
		}
		display = strings.TrimSuffix(display, "_test")
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if IsTestFilename(w.pass.Fset.Position(obj.Pos()).Filename) {
				continue
			}
			switch o := obj.(type) {
			case *types.TypeName:
				if s, ok := o.Type().Underlying().(*types.Struct); ok {
					w.walkStruct(s, display+"."+o.Name())
				}
			case *types.Var:
				if isMutexType(o.Type()) {
					w.class[o] = display + "." + o.Name()
				}
			}
		}
	}
}

func (w *lockWalk) walkStruct(s *types.Struct, prefix string) {
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		ft := types.Unalias(f.Type())
		if isMutexType(ft) {
			w.class[f] = prefix + "." + f.Name()
			continue
		}
		// Descend into anonymous struct fields only; named struct
		// fields are classed under their own type's name.
		if inner, ok := ft.(*types.Struct); ok {
			w.walkStruct(inner, prefix+"."+f.Name())
		}
	}
}

func isMutexType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// --- the walk ---

// scanBody walks one function body (or function literal) of the
// declaration decl with its own held set, recording acquisitions,
// nesting edges and held calls. fn is nil for function literals: their
// acquisitions join decl's taken set but not fn's direct set.
func (w *lockWalk) scanBody(pkg *Package, decl *ast.FuncDecl, fn *types.Func, body *ast.BlockStmt) {
	inTarget := w.pass.Targets[pkg]
	var walkStmt func(s ast.Stmt, held *[]*types.Var)
	var walkExpr func(e ast.Expr, held *[]*types.Var)

	acquire := func(v *types.Var, pos token.Pos, held *[]*types.Var) {
		w.taken[decl][v] = true
		if w.class[v] == "" {
			return // a local mutex: guards only, no class to order
		}
		for _, h := range *held {
			w.addEdge(h, v, w.pass.Fset.Position(pos), "", inTarget)
		}
		*held = append(*held, v)
		if fn != nil {
			set := w.direct[fn]
			if set == nil {
				set = make(map[*types.Var]bool)
				w.direct[fn] = set
			}
			set[v] = true
		}
	}
	release := func(v *types.Var, held *[]*types.Var) {
		for i := len(*held) - 1; i >= 0; i-- {
			if (*held)[i] == v {
				*held = append((*held)[:i], (*held)[i+1:]...)
				return
			}
		}
	}
	handleCall := func(call *ast.CallExpr, held *[]*types.Var) {
		if v, op := lockOp(pkg.Info, call); v != nil {
			switch op {
			case "Lock", "RLock", "TryLock", "TryRLock":
				acquire(v, call.Pos(), held)
			case "Unlock", "RUnlock":
				release(v, held)
			}
			return
		}
		if len(*held) == 0 {
			return
		}
		if callee := CalleeOf(pkg.Info, call); callee != nil {
			w.calls = append(w.calls, heldCall{
				callee:   callee,
				held:     append([]*types.Var(nil), *held...),
				pos:      w.pass.Fset.Position(call.Pos()),
				inTarget: inTarget,
			})
		}
	}

	walkExpr = func(e ast.Expr, held *[]*types.Var) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				w.scanBody(pkg, decl, nil, x.Body)
				return false
			case *ast.CallExpr:
				// Visit arguments first (inner calls complete before
				// the outer call runs), then the call itself.
				for _, a := range x.Args {
					walkExpr(a, held)
				}
				walkExpr(x.Fun, held)
				handleCall(x, held)
				return false
			}
			return true
		})
	}

	clone := func(held []*types.Var) []*types.Var {
		return append([]*types.Var(nil), held...)
	}

	walkStmt = func(s ast.Stmt, held *[]*types.Var) {
		switch x := s.(type) {
		case nil:
		case *ast.BlockStmt:
			for _, sub := range x.List {
				walkStmt(sub, held)
			}
		case *ast.IfStmt:
			walkStmt(x.Init, held)
			walkExpr(x.Cond, held)
			branch := clone(*held)
			walkStmt(x.Body, &branch)
			if x.Else != nil {
				branch = clone(*held)
				walkStmt(x.Else, &branch)
			}
		case *ast.ForStmt:
			walkStmt(x.Init, held)
			walkExpr(x.Cond, held)
			branch := clone(*held)
			walkStmt(x.Body, &branch)
			walkStmt(x.Post, &branch)
		case *ast.RangeStmt:
			walkExpr(x.X, held)
			branch := clone(*held)
			walkStmt(x.Body, &branch)
		case *ast.SwitchStmt:
			walkStmt(x.Init, held)
			walkExpr(x.Tag, held)
			for _, c := range x.Body.List {
				branch := clone(*held)
				walkStmt(c, &branch)
			}
		case *ast.TypeSwitchStmt:
			walkStmt(x.Init, held)
			walkStmt(x.Assign, held)
			for _, c := range x.Body.List {
				branch := clone(*held)
				walkStmt(c, &branch)
			}
		case *ast.CaseClause:
			for _, e := range x.List {
				walkExpr(e, held)
			}
			for _, sub := range x.Body {
				walkStmt(sub, held)
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				branch := clone(*held)
				walkStmt(c, &branch)
			}
		case *ast.CommClause:
			walkStmt(x.Comm, held)
			for _, sub := range x.Body {
				walkStmt(sub, held)
			}
		case *ast.LabeledStmt:
			walkStmt(x.Stmt, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps mu held to function end -- the
			// model's default, so nothing to do; any other deferred
			// call runs while the still-held classes are held.
			if v, op := lockOp(pkg.Info, x.Call); v != nil && (op == "Unlock" || op == "RUnlock") {
				return
			}
			walkExpr(x.Call, held)
		case *ast.GoStmt:
			// The goroutine does not inherit the held set; a literal
			// is scanned fresh, arguments are evaluated here.
			for _, a := range x.Call.Args {
				walkExpr(a, held)
			}
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.scanBody(pkg, decl, nil, lit.Body)
			}
		default:
			// Leaf statements (assign, expr, return, send, incdec,
			// decl...): process contained calls in order.
			ast.Inspect(s, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					walkExpr(e, held)
					return false
				}
				return true
			})
		}
	}

	var held []*types.Var
	walkStmt(body, &held)
}

// lockOp reports whether call is a Lock/Unlock-family method call on a
// sync mutex variable or field, returning that mutex and the method
// name.
func lockOp(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	var v *types.Var
	switch x := unparen(sel.X).(type) {
	case *ast.Ident:
		v, _ = info.Uses[x].(*types.Var)
	case *ast.SelectorExpr:
		v, _ = info.Uses[x.Sel].(*types.Var)
	case *ast.UnaryExpr:
		if inner, ok := unparen(x.X).(*ast.SelectorExpr); ok && x.Op == token.AND {
			v, _ = info.Uses[inner.Sel].(*types.Var)
		}
	}
	if v == nil {
		return nil, ""
	}
	return v, op
}

func (w *lockWalk) addEdge(from, to *types.Var, pos token.Position, via string, inTarget bool) {
	w.edges = append(w.edges, lockEdge{from: from, to: to, pos: pos, via: via, inTarget: inTarget})
}

// closeOverCalls computes each function's transitive acquires-set over
// the call graph and converts every held call into edges from the held
// classes to everything the callee (transitively) acquires.
func (w *lockWalk) closeOverCalls() {
	acq := make(map[*types.Func]map[*types.Var]bool, len(w.direct))
	for fn, set := range w.direct {
		cp := make(map[*types.Var]bool, len(set))
		for v := range set {
			cp[v] = true
		}
		acq[fn] = cp
	}
	for changed := true; changed; {
		changed = false
		for fn := range w.pass.Graph.Nodes {
			for _, callee := range w.pass.Graph.Calls[fn] {
				for v := range acq[callee] {
					set := acq[fn]
					if set == nil {
						set = make(map[*types.Var]bool)
						acq[fn] = set
					}
					if !set[v] {
						set[v] = true
						changed = true
					}
				}
			}
		}
	}
	for _, hc := range w.calls {
		for v := range acq[hc.callee] {
			for _, h := range hc.held {
				w.addEdge(h, v, hc.pos, hc.callee.Name(), hc.inTarget)
			}
		}
	}
}

// --- the two rules ---

// checkOrder reports every nesting site in a target package that does
// not go strictly up lockRanks.
func (w *lockWalk) checkOrder() {
	for _, e := range w.edges {
		if !e.inTarget {
			continue
		}
		from, to := w.class[e.from], w.class[e.to]
		suffix := ""
		if e.via != "" {
			suffix = fmt.Sprintf(" (via call to %s)", e.via)
		}
		rf, okf := lockRanks[from]
		rt, okt := lockRanks[to]
		switch {
		case !okf || !okt:
			unranked := to
			if !okf {
				unranked = from
			}
			w.pass.ReportAt(e.pos, "acquires %s while holding %s%s; %s is unranked, and only classes in lockRanks may nest (see DESIGN.md)",
				to, from, suffix, unranked)
		case rf >= rt:
			w.pass.ReportAt(e.pos, "acquires %s while holding %s%s, against the lock order: %s does not rank above %s (see DESIGN.md)",
				to, from, suffix, to, from)
		}
	}
}

// checkGuards reports every access to a guarded field, in a target
// package's non-test declaration, that neither acquires the guarding
// mutex nor carries the Locked suffix.
func (w *lockWalk) checkGuards() {
	for _, pkg := range w.pass.targetPackages() {
		guarded := w.guardedFields(pkg)
		if len(guarded) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			if w.pass.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
					continue
				}
				w.checkAccesses(pkg.Info, fd, guarded)
			}
		}
	}
}

// guardedFields maps each annotated field of pkg to its guarding mutex:
// the sibling sync.Mutex or sync.RWMutex field named by the annotation
// (its last dot component, so `guarded by s.mu` and `guarded by mu`
// both name the field mu). An annotation naming no such field is a
// finding.
func (w *lockWalk) guardedFields(pkg *Package) map[types.Object]*types.Var {
	guarded := make(map[types.Object]*types.Var)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			s, ok := pkg.Info.Types[st].Type.(*types.Struct)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				name := annotationMutex(field)
				if name == "" {
					continue
				}
				mu := siblingMutex(s, name)
				if mu == nil {
					w.pass.Reportf(field.Pos(), "guarded by %s names no sync.Mutex or sync.RWMutex field of this struct", name)
					continue
				}
				for _, id := range field.Names {
					if obj := pkg.Info.Defs[id]; obj != nil {
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

func siblingMutex(s *types.Struct, name string) *types.Var {
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); f.Name() == name && isMutexType(f.Type()) {
			return f
		}
	}
	return nil
}

// checkAccesses reports fd's accesses to guarded fields whose mutex fd
// does not acquire. Accesses through a local variable that fd itself
// built from a composite literal are exempt: the value is not shared
// yet, so constructors need no lock.
func (w *lockWalk) checkAccesses(info *types.Info, fd *ast.FuncDecl, guarded map[types.Object]*types.Var) {
	fresh := freshLocals(info, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		mu := guarded[selection.Obj()]
		if mu == nil || w.taken[fd][mu] {
			return true
		}
		if root := chainRoot(sel.X); root != nil {
			if obj := info.Uses[root]; obj != nil && fresh[obj] {
				return true
			}
		}
		w.pass.Reportf(sel.Sel.Pos(), "%s is guarded by %s but %s does not lock it; lock %s or rename the helper with a Locked suffix",
			sel.Sel.Name, mu.Name(), fd.Name.Name, mu.Name())
		return true
	})
}

// freshLocals returns the set of local variables fd initialises from a
// composite literal (`v := T{...}` or `v := &T{...}`), i.e. values that
// cannot yet be shared with another goroutine.
func freshLocals(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
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
