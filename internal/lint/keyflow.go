package lint

// keyflow: interprocedural taint tracking of secret key material. The
// paper's security argument assumes node keys are visible only to the
// key server and never leave it except wrapped (encrypted) or hashed;
// this analyzer makes that a build-time property:
//
//   Sources   values whose type is, or structurally contains, one of
//             the secret types -- keys.Key, keys.Generator (and its
//             DRBG state), keys.WrapContext, keys.Signer,
//             crypto/rsa.PrivateKey -- plus anything derived from them
//             by assignment, slicing, arithmetic or hashing.
//   Sinks     fmt.*, log.* / log/slog, errors.New, panic, print(ln),
//             and obs trace attachments (Registry.Emit): a secret that
//             reaches one ends up in a log line, an error string or a
//             trace ring served over HTTP.
//   Compare   == / != on secret-bearing values, bytes.Equal/Compare or
//             reflect.DeepEqual on tainted bytes, switch on a secret
//             tag, and secret-typed map keys are all variable-time;
//             the only sanctioned comparators are crypto/subtle and
//             keys.Key.Equal (itself built on subtle).
//   Sanitize  results of crypto/subtle functions are public, and a
//             function annotated //rekeylint:declassify <reason> is
//             trusted: its body is exempt and its results are public
//             (Key.String emits a fingerprint).
//
// The analysis is type- and flow-based per function, and goes
// interprocedural through the facts layer: analyzing internal/keys
// first (Loader.Order is dependencies-first), every function gets a
// "leaks" fact recording which parameters it passes to a sink --
// directly or via further calls -- so a dependent package calling
// helper(k[:]) is flagged at the call site even though the fmt call
// sits two packages away. Test files are exempt: fixture keys are
// deterministic and printed on purpose; production and harness code is
// not.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// KeyFlow reports secret key material flowing into logs, errors,
// traces or variable-time comparisons.
var KeyFlow = &Analyzer{
	Name: "keyflow",
	Run:  runKeyFlow,
}

// secretTypeNames lists the named types whose values are secret, per
// package import-path suffix. The suffix match lets fixture modules
// exercise the analyzer with a stand-in internal/keys.
var secretTypeNames = map[string][]string{
	"internal/keys": {"Key", "Generator", "WrapContext", "Signer", "ctrDRBG"},
	"crypto/rsa":    {"PrivateKey"},
}

// kfLeaks is the per-function fact: bit i set means parameter i
// (receiver first, when present) flows to a sink inside the function
// or one of its callees.
type kfLeaks struct {
	mask uint64
	sink string // description of the first sink reached, for messages
}

const (
	// kfSecretBit marks taint carrying actual secret bytes; lower bits
	// mark which parameter a value derives from (for the leaks fact).
	kfSecretBit = uint64(1) << 63
	kfMaxParams = 62
)

type keyflowState struct {
	pass     *Pass
	contains map[types.Type]bool
	visiting map[types.Type]bool
}

func runKeyFlow(pass *Pass) error {
	st := &keyflowState{
		pass:     pass,
		contains: make(map[types.Type]bool),
		visiting: make(map[types.Type]bool),
	}
	// Dependencies-first: facts computed for a package are complete
	// before any importer is analyzed. Within a package, iterate until
	// the leak facts stop changing so intra-package helper chains
	// resolve regardless of declaration order.
	for _, pkg := range pass.All {
		for iter := 0; iter < 8; iter++ {
			changed := false
			for _, f := range pkg.Files {
				if pass.IsTestFile(f) {
					continue
				}
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					if changedFacts := st.analyzeFunc(pkg, fn, false); changedFacts {
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	// Reporting pass over the target packages only.
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
				st.analyzeFunc(pkg, fn, true)
			}
		}
	}
	return nil
}

// isSecretTypeName reports whether the named type is one of the
// declared secret roots.
func isSecretTypeName(obj *types.TypeName) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	for suffix, names := range secretTypeNames {
		if pkg.Path() == suffix || strings.HasSuffix(pkg.Path(), "/"+suffix) {
			for _, n := range names {
				if obj.Name() == n {
					return true
				}
			}
		}
	}
	return false
}

// typeContainsSecret reports whether a value of type t structurally
// embeds secret material (a Key field, a slice of keys, a pointer to a
// Generator...). Interfaces and function types are opaque: a secret
// behind an interface is tracked at the point it was boxed, not after.
func (st *keyflowState) typeContainsSecret(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if v, ok := st.contains[t]; ok {
		return v
	}
	if st.visiting[t] {
		return false // recursive type; the cycle itself adds nothing
	}
	st.visiting[t] = true
	defer delete(st.visiting, t)

	var v bool
	switch u := t.(type) {
	case *types.Named:
		if isSecretTypeName(u.Obj()) {
			v = true
		} else {
			v = st.typeContainsSecret(u.Underlying())
		}
	case *types.Pointer:
		v = st.typeContainsSecret(u.Elem())
	case *types.Slice:
		v = st.typeContainsSecret(u.Elem())
	case *types.Array:
		v = st.typeContainsSecret(u.Elem())
	case *types.Chan:
		v = st.typeContainsSecret(u.Elem())
	case *types.Map:
		v = st.typeContainsSecret(u.Key()) || st.typeContainsSecret(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if st.typeContainsSecret(u.Field(i).Type()) {
				v = true
				break
			}
		}
	}
	st.contains[t] = v
	return v
}

// funcTaint is the per-function analysis state.
type funcTaint struct {
	st     *keyflowState
	pkg    *Package
	fn     *ast.FuncDecl
	report bool
	// taint maps objects (params, locals) to their flow mask.
	taint map[types.Object]uint64
	// params lists the function's parameters, receiver first, in fact
	// bit order.
	params []types.Object
	// leak accumulates the function's leaks fact this pass.
	leak kfLeaks
}

// analyzeFunc runs the taint analysis over one function; when report
// is false it only (re)computes the leaks fact, returning whether the
// fact changed.
func (st *keyflowState) analyzeFunc(pkg *Package, fn *ast.FuncDecl, report bool) bool {
	if reason, ok := declassifyReason(fn.Doc); ok {
		if reason == "" && report {
			st.pass.Reportf(fn.Pos(), "rekeylint:declassify requires a reason, e.g. //rekeylint:declassify emits ciphertext, not key bytes")
		}
		return false // trusted: body exempt, results public
	}
	ft := &funcTaint{st: st, pkg: pkg, fn: fn, report: report, taint: make(map[types.Object]uint64)}
	ft.seedParams()
	ft.propagate()
	ft.check()

	obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
	if obj == nil || ft.leak.mask == 0 {
		return false
	}
	prev, _ := st.pass.Facts.Get(obj, "keyflow.leaks")
	if p, ok := prev.(kfLeaks); ok && p.mask == (p.mask|ft.leak.mask) {
		return false
	}
	merged := ft.leak
	if p, ok := prev.(kfLeaks); ok {
		merged.mask |= p.mask
	}
	st.pass.Facts.Set(obj, "keyflow.leaks", merged)
	return true
}

func (ft *funcTaint) seedParams() {
	addObj := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := ft.pkg.Info.Defs[id]
		if obj == nil || len(ft.params) >= kfMaxParams {
			return
		}
		ft.taint[obj] |= uint64(1) << uint(len(ft.params))
		ft.params = append(ft.params, obj)
	}
	if ft.fn.Recv != nil {
		for _, field := range ft.fn.Recv.List {
			for _, name := range field.Names {
				addObj(name)
			}
		}
	}
	if ft.fn.Type.Params != nil {
		for _, field := range ft.fn.Type.Params.List {
			for _, name := range field.Names {
				addObj(name)
			}
		}
	}
}

// propagate iterates assignment-based taint flow to a fixpoint.
func (ft *funcTaint) propagate() {
	for i := 0; i < 10; i++ {
		if !ft.flowOnce() {
			return
		}
	}
}

func (ft *funcTaint) flowOnce() bool {
	changed := false
	mark := func(id *ast.Ident, m uint64) {
		if id == nil || id.Name == "_" || m == 0 {
			return
		}
		obj := ft.pkg.Info.Defs[id]
		if obj == nil {
			obj = ft.pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if ft.taint[obj]|m != ft.taint[obj] {
			ft.taint[obj] |= m
			changed = true
		}
	}
	ast.Inspect(ft.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					ft.assignMask(lhs, ft.exprMask(x.Rhs[i]), mark)
				}
			} else if len(x.Rhs) == 1 {
				// Multi-value: taint each target by its own result
				// slot, so `k, err := g.NewKey()` taints k but not err.
				masks := ft.multiValueMasks(x.Rhs[0], len(x.Lhs))
				for i, lhs := range x.Lhs {
					ft.assignMask(lhs, masks[i], mark)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == len(x.Names) {
				for i, name := range x.Names {
					mark(name, ft.exprMask(x.Values[i]))
				}
			} else if len(x.Values) == 1 {
				m := ft.exprMask(x.Values[0])
				for _, name := range x.Names {
					mark(name, m)
				}
			}
		case *ast.CallExpr:
			// copy(dst, src) moves bytes without an assignment; the
			// destination inherits the source's taint.
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 2 {
				if b, ok := ft.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					ft.assignMask(x.Args[0], ft.exprMask(x.Args[1]), mark)
				}
			}
		case *ast.RangeStmt:
			m := ft.exprMask(x.X)
			if m != 0 {
				t := ft.pkg.Info.Types[x.X].Type
				// Each loop variable keeps the source taint only if
				// its own type can hold secret bytes: ranging a
				// map[Key]int taints the keys, not the int IDs.
				if x.Value != nil {
					if id, ok := x.Value.(*ast.Ident); ok && ft.carriesElem(id) {
						mark(id, m)
					}
				}
				if x.Key != nil {
					if id, ok := x.Key.(*ast.Ident); ok && ft.carriesElem(id) {
						if t != nil {
							if _, isMap := t.Underlying().(*types.Map); isMap {
								mark(id, m)
							}
						}
					}
				}
			}
		}
		return true
	})
	return changed
}

// carriesElem reports whether the expression's own static type can
// hold secret bytes extracted from a tainted aggregate: byte storage,
// strings, secret-embedding types, or a single byte (k[0] stays
// secret; the int ID stored beside a key does not).
func (ft *funcTaint) carriesElem(e ast.Expr) bool {
	var t types.Type
	if tv, ok := ft.pkg.Info.Types[e]; ok {
		t = tv.Type
	} else if id, ok := e.(*ast.Ident); ok {
		// Range loop variables have Defs entries but no Types entry.
		if obj := ft.pkg.Info.Defs[id]; obj != nil {
			t = obj.Type()
		} else if obj := ft.pkg.Info.Uses[id]; obj != nil {
			t = obj.Type()
		}
	}
	if t == nil {
		return true // no type info: stay conservative
	}
	return ft.st.carries(t) || isByte(t)
}

// assignMask taints the assignment target: an identifier directly, or
// the root variable of a field/index write (storing a secret into a
// struct taints the struct-typed local).
func (ft *funcTaint) assignMask(lhs ast.Expr, m uint64, mark func(*ast.Ident, uint64)) {
	if m == 0 {
		return
	}
	switch t := unparen(lhs).(type) {
	case *ast.Ident:
		mark(t, m)
	default:
		if root := chainRoot(lhs); root != nil {
			if obj := ft.pkg.Info.Uses[root]; obj != nil {
				if _, isLocal := ft.taint[obj]; isLocal || obj.Parent() != ft.pkg.Pkg.Scope() {
					mark(root, m)
				}
			}
		}
	}
}

// byteBacked reports whether a value of this type is raw byte storage
// -- a slice or array chain bottoming out in uint8 ([]byte, [16]byte,
// [][]byte). Only such values can physically hold secret bytes copied
// out of a key, so only they propagate flow taint through a struct
// field selection: res.UserIDs ([]int) or cfg.Strategy (string)
// selected from a secret-holding struct are IDs and names, not material.
func byteBacked(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isByte(u.Elem()) || byteBacked(u.Elem())
	case *types.Array:
		return isByte(u.Elem()) || byteBacked(u.Elem())
	}
	return false
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// byteCarrier is byteBacked plus strings: a call result derived from
// secret input keeps its taint when it is byte storage *or* a string
// (hex.EncodeToString of key bytes), while an int count or an error
// produced beside a key does not. Pointers and interfaces are handled
// by the type-based rule instead -- a *Tree that holds keys is secret
// by type, while an error returned beside a key is not secret by flow.
func byteCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsString != 0
	}
	return byteBacked(t)
}

// carries reports whether a result of type t keeps the taint of the
// inputs that produced it: byte carriers and secret-embedding types
// do, scalars and opaque values do not.
func (st *keyflowState) carries(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if st.carries(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return byteCarrier(t) || st.typeContainsSecret(t)
}

// multiValueMasks computes per-slot taint for a multi-value RHS: for
// tuple-returning calls each result slot is gated by its own type.
func (ft *funcTaint) multiValueMasks(rhs ast.Expr, n int) []uint64 {
	masks := make([]uint64, n)
	if call, ok := unparen(rhs).(*ast.CallExpr); ok {
		if tv, ok := ft.pkg.Info.Types[call]; ok {
			if tup, ok := tv.Type.(*types.Tuple); ok && tup.Len() == n {
				raw := ft.rawCallMask(call)
				for i := range masks {
					if ft.st.carries(tup.At(i).Type()) {
						masks[i] = raw
					}
				}
				return masks
			}
		}
	}
	m := ft.exprMask(rhs)
	for i := range masks {
		masks[i] = m
	}
	return masks
}

// exprMask computes the taint mask of an expression: the union of the
// flow masks of the objects it reads, plus the secret bit whenever its
// static type structurally contains secret material.
func (ft *funcTaint) exprMask(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	var m uint64
	if tv, ok := ft.pkg.Info.Types[e]; ok && ft.st.typeContainsSecret(tv.Type) {
		m |= kfSecretBit
	}
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj := ft.pkg.Info.Uses[x]; obj != nil {
			m |= ft.taint[obj]
		}
	case *ast.SelectorExpr:
		// Field selection narrows: an int or string field of a tainted
		// struct is not itself secret; byte storage keeps the taint.
		if tv, ok := ft.pkg.Info.Types[x]; ok && byteBacked(tv.Type) {
			m |= ft.exprMask(x.X)
		}
	case *ast.IndexExpr:
		m |= ft.exprMask(x.X)
	case *ast.SliceExpr:
		m |= ft.exprMask(x.X)
	case *ast.StarExpr:
		m |= ft.exprMask(x.X)
	case *ast.UnaryExpr:
		m |= ft.exprMask(x.X)
	case *ast.BinaryExpr:
		m |= ft.exprMask(x.X) | ft.exprMask(x.Y)
	case *ast.TypeAssertExpr:
		m |= ft.exprMask(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= ft.exprMask(kv.Value)
			} else {
				m |= ft.exprMask(el)
			}
		}
	case *ast.CallExpr:
		m |= ft.callMask(x)
	}
	return m
}

// callMask computes the taint of a call used as a single value: the
// raw input taint, gated by whether the result type can carry bytes at
// all (the length of a key is public; a hash of it is not).
func (ft *funcTaint) callMask(call *ast.CallExpr) uint64 {
	raw := ft.rawCallMask(call)
	if raw == 0 {
		return 0
	}
	if tv, ok := ft.pkg.Info.Types[call]; ok && !ft.st.carries(tv.Type) {
		return 0
	}
	return raw
}

// rawCallMask computes the union of a call's input taint -- arguments
// plus method receiver -- after sanitizers.
func (ft *funcTaint) rawCallMask(call *ast.CallExpr) uint64 {
	fun := unparen(call.Fun)

	// Conversions propagate their operand.
	if tv, ok := ft.pkg.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return ft.exprMask(call.Args[0])
		}
		return 0
	}
	// Builtins: len/cap of a secret are public sizes.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := ft.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return 0
			}
			var m uint64
			for _, a := range call.Args {
				m |= ft.exprMask(a)
			}
			return m
		}
	}
	callee := CalleeOf(ft.pkg.Info, call)
	if callee != nil {
		path := pkgPathOf(callee)
		if path == "crypto/subtle" {
			return 0 // the sanctioned constant-time results are public
		}
		if ft.isDeclassified(callee) {
			return 0
		}
	}
	var m uint64
	for _, a := range call.Args {
		m |= ft.exprMask(a)
	}
	// A method call on a receiver that IS a secret object yields
	// tainted output (Key.bytes, a DRBG read, mac.Sum over an HMAC
	// keyed with secret bytes). Methods on aggregates that merely
	// *contain* keys (Server, Member, Tree) contribute no receiver
	// taint at all -- not even parameter bits: they overwhelmingly
	// return protocol data derived from their arguments, their
	// key-typed results are caught by the type-based rule anyway, and
	// propagating aggregate-receiver bits turns every byte the struct
	// ever touched into a false interprocedural chain.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if ft.st.directSecretType(ft.typeOf(sel.X)) {
			m |= ft.exprMask(sel.X)
		}
	}
	return m
}

// typeOf resolves an expression's static type, or nil.
func (ft *funcTaint) typeOf(e ast.Expr) types.Type {
	if tv, ok := ft.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// directSecretType reports whether t (through pointers) is itself one
// of the declared secret types, as opposed to a struct that embeds one
// somewhere.
func (st *keyflowState) directSecretType(t types.Type) bool {
	for {
		p, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	return isSecretTypeName(named.Obj())
}

// isDeclassified reports whether the callee carries the declassify
// directive (resolved through the call graph so cross-package calls
// see the annotation).
func (ft *funcTaint) isDeclassified(callee *types.Func) bool {
	node := ft.st.pass.Graph.Nodes[callee]
	if node == nil {
		return false
	}
	_, ok := declassifyReason(node.Decl.Doc)
	return ok
}

// check walks the body reporting sink flows and variable-time
// comparisons, and accumulates the leaks fact.
func (ft *funcTaint) check() {
	ast.Inspect(ft.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			ft.checkCall(x)
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				ft.checkCompare(x)
			}
		case *ast.SwitchStmt:
			if x.Tag != nil && ft.exprMask(x.Tag)&kfSecretBit != 0 {
				ft.reportf(x.Tag.Pos(), "switch on secret value is a non-constant-time comparison; use subtle.ConstantTimeCompare per case")
			}
		case *ast.IndexExpr:
			if tv, ok := ft.pkg.Info.Types[x.X]; ok {
				if mt, ok := tv.Type.Underlying().(*types.Map); ok && ft.st.typeContainsSecret(mt.Key()) {
					ft.reportf(x.Pos(), "map keyed by secret type %s hashes key bytes in variable time and retains them; key by key ID instead", mt.Key())
				}
			}
		}
		return true
	})
}

func (ft *funcTaint) reportf(pos token.Pos, format string, args ...any) {
	if ft.report {
		ft.st.pass.Reportf(pos, format, args...)
	}
}

// noteSink records that the given argument mask reached a sink: a
// concrete secret is reported, a parameter-derived value becomes part
// of the function's leaks fact.
func (ft *funcTaint) noteSink(pos token.Pos, m uint64, sink string) {
	if m&kfSecretBit != 0 {
		ft.reportf(pos, "secret key material flows into %s; hash it, pass a fingerprint (Key.String), or annotate the reviewed path //rekeylint:declassify <reason>", sink)
		return
	}
	if bits := m &^ kfSecretBit; bits != 0 {
		if ft.leak.mask|bits != ft.leak.mask {
			ft.leak.mask |= bits
			if ft.leak.sink == "" {
				ft.leak.sink = sink
			}
		}
	}
}

func (ft *funcTaint) checkCall(call *ast.CallExpr) {
	fun := unparen(call.Fun)

	// panic / print / println builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := ft.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic", "print", "println":
				for _, a := range call.Args {
					ft.noteSink(a.Pos(), ft.exprMask(a), b.Name())
				}
			}
			return
		}
	}

	callee := CalleeOf(ft.pkg.Info, call)
	if callee == nil {
		return
	}
	path := pkgPathOf(callee)
	sink := ""
	switch {
	case path == "fmt":
		sink = "fmt." + callee.Name()
	case path == "log" || path == "log/slog":
		sink = path + "." + callee.Name()
	case path == "errors" && callee.Name() == "New":
		sink = "errors.New"
	case callee.Name() == "Emit" && strings.HasSuffix(path, "internal/obs"):
		sink = "the obs trace ring (Registry.Emit)"
	}
	if sink != "" {
		for _, a := range call.Args {
			ft.noteSink(a.Pos(), ft.exprMask(a), sink)
		}
		return
	}

	// bytes.Equal / bytes.Compare / reflect.DeepEqual on tainted data.
	if (path == "bytes" && (callee.Name() == "Equal" || callee.Name() == "Compare")) ||
		(path == "reflect" && callee.Name() == "DeepEqual") {
		for _, a := range call.Args {
			if ft.exprMask(a)&kfSecretBit != 0 {
				ft.reportf(a.Pos(), "%s.%s on secret key material is not constant-time; use subtle.ConstantTimeCompare", path, callee.Name())
				break
			}
		}
		return
	}

	// Interprocedural: callee passes some parameter onward to a sink.
	if fact, ok := ft.st.pass.Facts.Get(callee, "keyflow.leaks"); ok {
		leaks := fact.(kfLeaks)
		// Parameter numbering in the fact counts the receiver first.
		// Use the callee's own signature: the type of a method-value
		// selector expression has no Recv, so resolving through the
		// call expression would misalign every argument bit by one.
		argOffset := 0
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			argOffset = 1
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				if leaks.mask&1 != 0 {
					ft.noteSinkVia(sel.X.Pos(), ft.exprMask(sel.X), callee, leaks.sink)
				}
			}
		}
		for i, a := range call.Args {
			bit := uint64(1) << uint(i+argOffset)
			if leaks.mask&bit != 0 {
				ft.noteSinkVia(a.Pos(), ft.exprMask(a), callee, leaks.sink)
			}
		}
	}
}

func (ft *funcTaint) noteSinkVia(pos token.Pos, m uint64, callee *types.Func, sink string) {
	if m&kfSecretBit != 0 {
		ft.reportf(pos, "secret key material flows into %s, which passes it to %s", callee.Name(), sink)
		return
	}
	if bits := m &^ kfSecretBit; bits != 0 {
		if ft.leak.mask|bits != ft.leak.mask {
			ft.leak.mask |= bits
			if ft.leak.sink == "" {
				ft.leak.sink = sink
			}
		}
	}
}

// checkCompare flags == / != over values that embed secret bytes.
// Pointer, interface, channel and function comparisons compare
// identity, not bytes, and nil checks are always fine.
func (ft *funcTaint) checkCompare(x *ast.BinaryExpr) {
	if isNilExpr(ft.pkg.Info, x.X) || isNilExpr(ft.pkg.Info, x.Y) {
		return
	}
	for _, side := range []ast.Expr{x.X, x.Y} {
		tv, ok := ft.pkg.Info.Types[side]
		if !ok || tv.Type == nil {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Chan, *types.Signature, *types.Map, *types.Slice:
			return // identity comparison, no key bytes inspected
		}
	}
	if ft.exprMask(x.X)&kfSecretBit != 0 || ft.exprMask(x.Y)&kfSecretBit != 0 {
		ft.reportf(x.OpPos, "non-constant-time comparison of secret key material; use keys.Key.Equal or subtle.ConstantTimeCompare")
	}
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
