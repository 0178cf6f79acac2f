// Package parfor enforces the index-disjoint-writes contract of
// workpool.ParallelFor (and DynamicFor): a body closure must write
// only to locations addressed by its own shard — writes to captured
// variables are legal only when every step of the written lvalue
// chain is indexed by an expression derived from the closure's shard
// parameters. Shared
// accumulators ("total += x") and un-sharded writes to captured
// state race and break the bit-determinism the goldens pin; without
// the pass only -race and the evaluator's worker-count determinism
// tests catch them.
//
// The pass resolves derivation by taint: the closure's parameters
// seed the tainted set, and locals assigned from tainted expressions
// join it (so "for i := start; …; out[i] = v" and "slot :=
// f.scoreSlots[k]" both pass). It also flags a ParallelFor/DynamicFor
// call nested syntactically inside another's body closure — the shape
// that deadlocked the pre-PR-2 buffered pool; the inline-fallback
// pool tolerates it now, so deliberate nesting carries an
// //alic:allow parfor <reason> suppression.
package parfor

import (
	"go/ast"
	"go/types"

	"alic/internal/analysis"
)

// Analyzer is the parfor pass.
var Analyzer = &analysis.Analyzer{
	Name: "parfor",
	Doc:  "flag non-index-disjoint writes to captured variables inside ParallelFor body closures",
	Run:  run,
}

// parallelNames are the callee names treated as sharded-loop entry
// points. Matching is by name (any package), so a copy of the workpool
// loops is checked like the originals.
var parallelNames = map[string]bool{
	"ParallelFor": true,
	"DynamicFor":  true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallelCall(pass.TypesInfo, call) {
				return true
			}
			body, ok := lastArgFuncLit(call)
			if !ok {
				return true
			}
			checkBody(pass, body)
			// The closure's interior is fully handled (including
			// nested parallel calls); don't descend into it again.
			return false
		})
	}
	return nil, nil
}

func isParallelCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	return fn != nil && parallelNames[fn.Name()]
}

func lastArgFuncLit(call *ast.CallExpr) (*ast.FuncLit, bool) {
	if len(call.Args) == 0 {
		return nil, false
	}
	fl, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	return fl, ok
}

func checkBody(pass *analysis.Pass, body *ast.FuncLit) {
	info := pass.TypesInfo
	tainted := taintedSet(info, body)
	ast.Inspect(body.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isParallelCall(info, n) {
				pass.Reportf(n.Pos(), "nested ParallelFor inside a ParallelFor body: the pre-inline-fallback pool deadlocked on this shape; restructure or justify with //alic:allow parfor")
				if inner, ok := lastArgFuncLit(n); ok {
					checkBody(pass, inner)
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, info, body, lhs, tainted)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, info, body, n.X, tainted)
		case *ast.SendStmt:
			if capturedRoot(info, body, n.Chan) != nil {
				pass.Reportf(n.Pos(), "send on a captured channel from a ParallelFor body: delivery order depends on shard scheduling")
			}
		}
		return true
	})
}

// taintedSet seeds the closure's parameters and propagates through
// assignments: a local assigned from an expression mentioning a
// tainted variable becomes tainted (over-approximation on purpose —
// taint widens the set of accepted indices, never the flagged set).
func taintedSet(info *types.Info, body *ast.FuncLit) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	if body.Type.Params != nil {
		for _, f := range body.Type.Params.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					tainted[o] = true
				}
			}
		}
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		ast.Inspect(body.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			fromTainted := false
			for _, rhs := range as.Rhs {
				if analysis.MentionsAny(info, rhs, tainted) {
					fromTainted = true
					break
				}
			}
			if !fromTainted {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if o := analysis.ObjOf(info, id); o != nil && !tainted[o] {
						tainted[o] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return tainted
}

// capturedRoot returns the root object of the lvalue chain when it is
// declared outside the closure (i.e. captured), else nil.
func capturedRoot(info *types.Info, body *ast.FuncLit, e ast.Expr) types.Object {
	id := analysis.RootIdent(e)
	if id == nil {
		return nil
	}
	obj := analysis.ObjOf(info, id)
	if obj == nil {
		return nil
	}
	if analysis.DeclaredWithin(obj, body.Pos(), body.End()) {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil // package-level funcs, types, consts: not writable state
	}
	return obj
}

// checkWrite flags a write through a captured root unless some index
// step of the lvalue chain is derived from the shard parameters.
func checkWrite(pass *analysis.Pass, info *types.Info, body *ast.FuncLit, lhs ast.Expr, tainted map[types.Object]bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	obj := capturedRoot(info, body, lhs)
	if obj == nil {
		return
	}
	// Walk the chain looking for a shard-derived index.
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if analysis.MentionsAny(info, x.Index, tainted) {
				return // disjoint by construction
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			pass.Reportf(lhs.Pos(), "write to captured %q is not indexed by the closure's shard parameters: shards race and results depend on worker count", obj.Name())
			return
		}
	}
}
