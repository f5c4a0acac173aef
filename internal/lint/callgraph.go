package lint

// callgraph.go builds the static call graph locks and keyflow walk.
// Resolution is deliberately conservative and cheap: a call site is an
// edge only when the callee is statically known -- a package-level
// function, a method called on a concrete receiver, or a method value
// whose object go/types resolves. Calls through interface values and
// closure-typed variables stay unresolved (locks and keyflow note this
// in their docs: they prove the static structure, the race detector
// and runtime gates cover the dynamic remainder).

import (
	"go/ast"
	"go/types"
)

// A FuncNode is one declared function or method of the module.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *ast.File
}

// A CallGraph maps every module function to its declaration and its
// statically-resolved callees.
type CallGraph struct {
	// Nodes indexes module functions (and methods) by object. Standard
	// library callees appear in Calls but have no node.
	Nodes map[*types.Func]*FuncNode
	// Calls lists each function's statically-resolved callees, in
	// source order, duplicates preserved.
	Calls map[*types.Func][]*types.Func
}

// BuildCallGraph constructs the call graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes: make(map[*types.Func]*FuncNode),
		Calls: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[obj] = &FuncNode{Obj: obj, Decl: fn, Pkg: pkg, File: f}
				if fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeOf(pkg.Info, call); callee != nil {
						g.Calls[obj] = append(g.Calls[obj], callee)
					}
					return true
				})
			}
		}
	}
	return g
}

// CalleeOf resolves a call expression to its static callee, or nil for
// dynamic calls (interface methods resolve to the interface's method
// object, which has no body in the graph -- callers treat that the
// same as unresolved).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
