package lint

// lockorder: deadlock prevention by construction. Every sync.Mutex /
// sync.RWMutex field in the module is a *lock class* named after its
// declaration site (rekey.Server.treeMu, obs.Registry.trace.mu); this
// analyzer scans each function for acquisitions performed while other
// classes are held -- directly, or transitively through statically
// resolved calls -- and builds the module's lock-acquisition graph.
// Two properties are enforced:
//
//  1. The graph is acyclic. Any cycle (including a class acquired
//     while an instance of the same class is held) is reported: class
//     level acquisition cycles are exactly the shapes that deadlock
//     under the wrong interleaving.
//
//  2. Edges between *ranked* classes respect the canonical order
//     pinned in lockRanks (documented in DESIGN.md). The canonical
//     order is stricter than mere acyclicity: it stops two
//     independently-acyclic patches from composing into a cycle
//     later, because each would have failed the rank check alone.
//
// The analysis is conservative and class-level. It tracks held sets
// through straight-line code, clones them at branch boundaries (a
// conditionally-acquired lock never leaks into the fallthrough path),
// treats `defer mu.Unlock()` as held-to-end, and scans function
// literals with an empty held set of their own. Calls through
// interfaces and closure-typed variables are invisible to the call
// graph (callgraph.go); the race detector and the adversarial churn
// harness cover that dynamic remainder.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// LockOrder enforces an acyclic, canonically-ranked lock-acquisition
// order across the module.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition must follow the canonical lock-order DAG (no cycles, ranked edges in order)",
	Run:  runLockOrder,
}

// lockRanks pins the canonical acquisition order of the repository's
// lock classes: an edge (held -> acquired) between two ranked classes
// must go strictly rank-upward. Unranked classes (fixtures, future
// code) are still covered by cycle detection. Keep this table in sync
// with the "Canonical lock order" section of DESIGN.md.
var lockRanks = map[string]int{
	"keyserverd.daemon.mu":  10,
	"rekey.Server.mu":       20,
	"udptrans.Server.mu":    30,
	"udptrans.Client.mu":    40,
	"rekey.Server.treeMu":   60,
	"rekey.Member.mu":       70,
	"rekey.RekeyMessage.mu": 80,
	"keys.RootVerifier.mu":  90,
	"fec.invCache.mu":       100,
	"obs.Registry.trace.mu": 110,
	"udptrans.rxBufList.mu": 120,
}

// lockOrderDebug, when set (by tests), receives every edge of the
// acquisition graph as it is recorded.
var lockOrderDebug func(from, to, via string, pos token.Position)

// A lockEdge is one observed acquisition: `to` acquired while `from`
// was held, at pos; via names the intermediate callee for edges found
// through the call graph ("" for direct acquisitions).
type lockEdge struct {
	from, to *types.Var
	pos      token.Position
	via      string
	inTarget bool
}

type lockOrderState struct {
	pass *Pass
	// class maps each mutex field/var object to its display name.
	class map[*types.Var]string

	// direct[f] is the set of classes f's body acquires directly.
	direct map[*types.Func]map[*types.Var]bool
	// calls records every statically-resolved call made while at
	// least one class was held.
	calls []heldCall
	edges map[[2]*types.Var]*lockEdge
}

type heldCall struct {
	callee   *types.Func
	held     []*types.Var
	pos      token.Position
	inTarget bool
}

func runLockOrder(pass *Pass) error {
	st := &lockOrderState{
		pass:   pass,
		class:  make(map[*types.Var]string),
		direct: make(map[*types.Func]map[*types.Var]bool),
		edges:  make(map[[2]*types.Var]*lockEdge),
	}
	st.collectClasses()
	for _, pkg := range pass.All {
		for _, f := range pkg.Files {
			if pass.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				st.scanBody(pkg, obj, fn.Body, nil)
			}
		}
	}
	st.closeOverCalls()
	st.report()
	return nil
}

// collectClasses names every sync.Mutex / sync.RWMutex declared by the
// module: struct fields (walking nested anonymous structs, so the obs
// registry's trace.mu gets its qualified name) and package-level vars.
func (st *lockOrderState) collectClasses() {
	for _, pkg := range st.pass.All {
		display := pkg.Pkg.Name()
		if display == "main" {
			display = path.Base(strings.TrimSuffix(pkg.Path, ".test"))
		}
		display = strings.TrimSuffix(display, "_test")
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if IsTestFilename(st.pass.Fset.Position(obj.Pos()).Filename) {
				continue
			}
			switch o := obj.(type) {
			case *types.TypeName:
				if s, ok := o.Type().Underlying().(*types.Struct); ok {
					st.walkStruct(s, display+"."+o.Name())
				}
			case *types.Var:
				if isMutexType(o.Type()) {
					st.class[o] = display + "." + o.Name()
				}
			}
		}
	}
}

func (st *lockOrderState) walkStruct(s *types.Struct, prefix string) {
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		ft := types.Unalias(f.Type())
		if isMutexType(ft) {
			st.class[f] = prefix + "." + f.Name()
			continue
		}
		// Descend into anonymous struct fields only; named struct
		// fields are classed under their own type's name.
		if inner, ok := ft.(*types.Struct); ok {
			st.walkStruct(inner, prefix+"."+f.Name())
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

// --- per-function scan ---

// scanBody walks one function body (or function literal) with a
// mutable held set, recording direct acquisitions, acquisition edges
// and held calls. fn is nil for function literals: their acquisitions
// make edges but do not join any function's acquires-set (a literal
// often runs on its own goroutine, where the enclosing function's
// locks are not held).
func (st *lockOrderState) scanBody(pkg *Package, fn *types.Func, body *ast.BlockStmt, held []*types.Var) {
	inTarget := st.pass.Targets[pkg]
	var walkStmt func(s ast.Stmt, held *[]*types.Var)
	var walkExpr func(e ast.Expr, held *[]*types.Var)

	acquire := func(v *types.Var, pos token.Pos, held *[]*types.Var) {
		for _, h := range *held {
			st.addEdge(h, v, st.pass.Fset.Position(pos), "", inTarget)
		}
		*held = append(*held, v)
		if fn != nil {
			set := st.direct[fn]
			if set == nil {
				set = make(map[*types.Var]bool)
				st.direct[fn] = set
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
		if v, op := st.lockOp(pkg.Info, call); v != nil {
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
			st.calls = append(st.calls, heldCall{
				callee:   callee,
				held:     append([]*types.Var(nil), *held...),
				pos:      st.pass.Fset.Position(call.Pos()),
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
				st.scanBody(pkg, nil, x.Body, nil)
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
			if v, op := st.lockOp(pkg.Info, x.Call); v != nil && (op == "Unlock" || op == "RUnlock") {
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
				st.scanBody(pkg, nil, lit.Body, nil)
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

	h := held
	walkStmt(body, &h)
}

// lockOp reports whether call is a Lock/Unlock-family method call on a
// classed mutex, returning the mutex object and the method name.
func (st *lockOrderState) lockOp(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
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
	if v == nil || st.class[v] == "" {
		return nil, ""
	}
	return v, op
}

func (st *lockOrderState) addEdge(from, to *types.Var, pos token.Position, via string, inTarget bool) {
	key := [2]*types.Var{from, to}
	if e := st.edges[key]; e != nil {
		// Keep the first direct sighting; upgrade via-edges to direct.
		if e.via != "" && via == "" {
			e.pos, e.via, e.inTarget = pos, via, inTarget
		}
		return
	}
	st.edges[key] = &lockEdge{from: from, to: to, pos: pos, via: via, inTarget: inTarget}
	if lockOrderDebug != nil {
		lockOrderDebug(st.class[from], st.class[to], via, pos)
	}
}

// closeOverCalls computes each function's transitive acquires-set over
// the call graph and converts every held call into edges from the held
// classes to everything the callee (transitively) acquires.
func (st *lockOrderState) closeOverCalls() {
	acq := make(map[*types.Func]map[*types.Var]bool, len(st.direct))
	for fn, set := range st.direct {
		cp := make(map[*types.Var]bool, len(set))
		for v := range set {
			cp[v] = true
		}
		acq[fn] = cp
	}
	for changed := true; changed; {
		changed = false
		for fn := range st.pass.Graph.Nodes {
			for _, callee := range st.pass.Graph.Calls[fn] {
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
	for _, hc := range st.calls {
		for v := range acq[hc.callee] {
			for _, h := range hc.held {
				st.addEdge(h, v, hc.pos, hc.callee.Name(), hc.inTarget)
			}
		}
	}
}

// report checks the accumulated graph: self-edges, cycles, then rank
// order on the remaining edges.
func (st *lockOrderState) report() {
	edges := make([]*lockEdge, 0, len(st.edges))
	for _, e := range st.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return st.class[a.to] < st.class[b.to]
	})

	succ := make(map[*types.Var][]*types.Var)
	for _, e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	inCycle := st.cyclicNodes(succ)

	reportedCycle := make(map[string]bool)
	for _, e := range edges {
		if !e.inTarget {
			continue
		}
		suffix := ""
		if e.via != "" {
			suffix = fmt.Sprintf(" (via call to %s)", e.via)
		}
		if e.from == e.to {
			st.pass.ReportAt(e.pos, "lock class %s acquired while an instance of %s is already held%s; instance order is not statically checkable -- restructure to release first",
				st.class[e.to], st.class[e.from], suffix)
			continue
		}
		if inCycle[e.from] && inCycle[e.to] {
			cyc := st.cyclePath(succ, e.from, e.to)
			if !reportedCycle[cyc] {
				reportedCycle[cyc] = true
				st.pass.ReportAt(e.pos, "lock-order cycle: %s%s; see the canonical lock order in DESIGN.md", cyc, suffix)
			}
			continue
		}
		rf, okf := lockRanks[st.class[e.from]]
		rt, okt := lockRanks[st.class[e.to]]
		if okf && okt && rf >= rt {
			st.pass.ReportAt(e.pos, "acquires %s while holding %s%s, violating the canonical lock order (%s ranks before %s; see DESIGN.md)",
				st.class[e.to], st.class[e.from], suffix, st.class[e.to], st.class[e.from])
		}
	}
}

// cyclicNodes returns the classes that sit on some acquisition cycle
// (members of a strongly connected component of size > 1, or with a
// self-loop -- self-loops are reported separately).
func (st *lockOrderState) cyclicNodes(succ map[*types.Var][]*types.Var) map[*types.Var]bool {
	// Tarjan's SCC, iterative enough for our graph sizes via recursion.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	next := 0
	out := make(map[*types.Var]bool)
	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				for _, w := range comp {
					out[w] = true
				}
			}
		}
	}
	for v := range succ {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return out
}

// cyclePath renders a cycle through the edge from->to as a stable
// "A -> B -> ... -> A" string, for reporting and deduplication.
func (st *lockOrderState) cyclePath(succ map[*types.Var][]*types.Var, from, to *types.Var) string {
	// BFS from `to` back to `from`; the edge from->to closes the loop.
	prev := map[*types.Var]*types.Var{to: nil}
	queue := []*types.Var{to}
	for len(queue) > 0 && prev[from] == nil && from != to {
		v := queue[0]
		queue = queue[1:]
		ws := append([]*types.Var(nil), succ[v]...)
		sort.Slice(ws, func(i, j int) bool { return st.class[ws[i]] < st.class[ws[j]] })
		for _, w := range ws {
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	var names []string
	for v := from; v != nil; v = prev[v] {
		names = append(names, st.class[v])
		if v == to {
			break
		}
	}
	// names is from..to along reversed prev pointers; rebuild as
	// from -> to -> ... -> from.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	ordered := append([]string{st.class[from]}, names...)
	ordered = append(ordered, st.class[from])
	// Dedup immediate repeats introduced by the reconstruction.
	var parts []string
	for _, n := range ordered {
		if len(parts) == 0 || parts[len(parts)-1] != n {
			parts = append(parts, n)
		}
	}
	return strings.Join(parts, " -> ")
}
