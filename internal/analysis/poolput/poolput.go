// Package poolput flags sync.Pool.Get calls with no matching Put in the
// same function. A pool that is only ever drained degenerates into
// plain allocation with extra steps — worse, because every miss also
// pays the pool's bookkeeping. The serving path's scratch buffers
// (internal/server) lean on Get/Put symmetry to stay off the allocator;
// a forgotten Put is invisible to tests (everything still works) and
// only shows up as allocs/op creep under load.
//
// Accepted shapes:
//
//   - a Put on the same pool expression anywhere in the function — a
//     plain call, a deferred call, or a call inside a deferred closure
//     (defer func() { p.Put(b) }());
//   - the Get result is returned to the caller — get-style wrappers
//     (getCBuf) transfer the Put obligation upward.
//
// The match is per pool expression (types.ExprString), the same
// source-order heuristic the lockhold analyzer uses for lock identity.
// A Get whose Put lives in a different function (other than via return)
// needs //fftlint:ignore poolput <reason> naming where the Put happens.
package poolput

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolput",
	Doc:  "flags sync.Pool.Get without a guaranteed Put (or ownership transfer) in the same function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

type getSite struct {
	call *ast.CallExpr
	key  string
	obj  types.Object // variable receiving the result, if any
}

// checkFunc audits one top-level function, nested literals included:
// a Put inside a closure still returns the value to the pool, and a
// Get inside a closure still owes one.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var gets []getSite
	puts := make(map[string]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isPoolMethod(pass, sel) {
			return true
		}
		key := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Get":
			gets = append(gets, getSite{call: call, key: key})
		case "Put":
			puts[key] = true
		}
		return true
	})
	if len(gets) == 0 {
		return
	}

	// Resolve which variable each Get lands in, through an optional
	// type assertion: b := pool.Get().(*T).
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			inner := rhs
			if ta, ok := inner.(*ast.TypeAssertExpr); ok {
				inner = ta.X
			}
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				continue
			}
			for gi := range gets {
				if gets[gi].call != call {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						gets[gi].obj = obj
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						gets[gi].obj = obj
					}
				}
			}
		}
		return true
	})

	for _, g := range gets {
		if puts[g.key] {
			continue
		}
		if g.obj != nil && returned(pass, body, g.obj) {
			continue
		}
		pass.Reportf(g.call.Pos(),
			"sync.Pool.Get from %s with no Put on any path in this function; defer %s.Put(...) or return the value to transfer ownership", g.key, g.key)
	}
}

// isPoolMethod reports whether sel names Get/Put on a sync.Pool.
func isPoolMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Get" && sel.Sel.Name != "Put" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// returned reports whether obj appears in a return statement of this
// function (not of nested literals).
func returned(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	out := false
	ast.Inspect(body, func(n ast.Node) bool {
		if out {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range r.Results {
				if id, ok := res.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					out = true
				}
			}
		}
		return true
	})
	return out
}
