package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLifecycleAnalyzer ties every `go` statement to a join mechanism. The
// checker and the live runtime are only deterministic up to the schedule if
// every goroutine's lifetime is bracketed: a fire-and-forget goroutine can
// outlive the run that spawned it and mutate shared state while the next
// run (or the test binary's exit) is underway — nondeterminism the model
// cannot express. Accepted lifecycle patterns:
//
//   - sync.WaitGroup: an `Add` call textually dominating the `go` statement
//     in the spawning function, with `defer wg.Done()` on the *same*
//     WaitGroup inside the spawned body (matched by variable or field
//     identity, so `nw.wg.Add(1)` in one method pairs with
//     `defer nw.wg.Done()` in another);
//   - done-channel / context: the spawned body receives from (or ranges
//     over) a channel created outside the body — a stop channel, a work
//     queue, or `<-ctx.Done()` — so closing the channel or canceling the
//     context bounds the goroutine;
//   - a callee outside the package, given a channel or context.Context
//     argument (the lifecycle lives behind the call boundary).
//
// Two defect shapes are reported: a goroutine with no join mechanism at
// all, and the classic race of calling `wg.Add` *inside* the spawned body,
// where it can run after `Wait` has already returned.
var GoLifecycleAnalyzer = &Analyzer{
	Name: "golifecycle",
	Doc:  "every go statement needs a join: WaitGroup Add-before/deferred-Done, or an externally created done-channel/context reaching the body",
	Run:  runGoLifecycle,
}

func runGoLifecycle(pass *Pass) {
	// Same-package callee bodies, so `go nd.heartbeats(stop)` can be
	// checked against the callee's actual statements.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, decls, fd, gs)
				}
				return true
			})
		}
	}
}

func checkGoStmt(pass *Pass, decls map[*types.Func]*ast.FuncDecl, enclosing *ast.FuncDecl, gs *ast.GoStmt) {
	// Resolve the spawned body: a literal, or a same-package declaration.
	var body *ast.BlockStmt
	switch fun := unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if fn := calleeFunc(pass.Info, gs.Call); fn != nil {
			if fd, ok := decls[fn]; ok {
				body = fd.Body
			}
		}
	}

	if body == nil {
		// Foreign callee: accept a channel or context argument as the join
		// handle; anything else is opaque fire-and-forget.
		for _, arg := range gs.Call.Args {
			if t := typeOf(pass.Info, arg); t != nil && (isChanType(t) || isContextType(t)) {
				return
			}
		}
		pass.Reportf(gs.Pos(), "goroutine calls %s with no visible join mechanism; pass a done-channel/context or manage it with a sync.WaitGroup", exprString(gs.Call.Fun))
		return
	}

	// Defect: Add inside the spawned body races with Wait.
	for _, call := range shallowCalls(body) {
		if name, wgExpr, ok := waitGroupMethod(pass.Info, call); ok && name == "Add" {
			pass.Reportf(call.Pos(), "sync.WaitGroup.Add on %s inside the spawned goroutine races with Wait; Add must dominate the go statement", exprString(wgExpr))
		}
	}

	// Pattern 1: deferred Done on a WaitGroup whose Add dominates the go.
	var doneWGs []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if name, wgExpr, ok := waitGroupMethod(pass.Info, ds.Call); ok && name == "Done" {
			if obj := wgIdentity(pass.Info, wgExpr); obj != nil {
				doneWGs = append(doneWGs, obj)
			}
		}
		return true
	})
	if len(doneWGs) > 0 {
		adds := precedingAdds(pass.Info, enclosing, gs.Pos())
		for _, wg := range doneWGs {
			if adds[wg] {
				return
			}
		}
		pass.Reportf(gs.Pos(), "goroutine defers WaitGroup.Done but no Add on the same WaitGroup dominates the go statement in %s", enclosing.Name.Name)
		return
	}

	// Pattern 2: the body receives from an externally created channel.
	if receivesExternalChan(pass.Info, body) {
		return
	}

	pass.Reportf(gs.Pos(), "fire-and-forget goroutine: no WaitGroup Add/Done pair and no receive from an externally created done-channel/context")
}

// calleeFunc resolves the called function object of a go statement's call.
// Methods of generic types (and generic functions) resolve to their
// instantiation; Origin maps them back to the declaration the decls map is
// keyed by, so `go p.worker(i)` on a Pool[S, E] still gets its body checked.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// shallowCalls collects call expressions in a body without descending into
// nested function literals (their statements run on yet another goroutine
// or a later call, not this one).
func shallowCalls(body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// waitGroupMethod matches a call of sync.WaitGroup's Add/Done/Wait and
// returns the method name and the WaitGroup-valued receiver expression.
func waitGroupMethod(info *types.Info, call *ast.CallExpr) (name string, wgExpr ast.Expr, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", nil, false
	}
	recvT := sig.Recv().Type()
	if p, isPtr := recvT.(*types.Pointer); isPtr {
		recvT = p.Elem()
	}
	named, isNamed := recvT.(*types.Named)
	if !isNamed || named.Obj().Name() != "WaitGroup" {
		return "", nil, false
	}
	return fn.Name(), sel.X, true
}

// wgIdentity names a WaitGroup-valued expression by the variable or struct
// field holding it, so the same WaitGroup is recognized through different
// receiver names (`g.wg` in Group.Start vs `g.wg` in pollLoop).
func wgIdentity(info *types.Info, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return originVar(v)
			}
		}
	case *ast.StarExpr:
		return wgIdentity(info, x.X)
	case *ast.UnaryExpr:
		return wgIdentity(info, x.X)
	}
	return nil
}

// precedingAdds collects the WaitGroups with an Add call textually before
// pos in the enclosing declaration, skipping Adds inside other spawned
// goroutines.
func precedingAdds(info *types.Info, fd *ast.FuncDecl, pos token.Pos) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if _, isLit := unparen(gs.Call.Fun).(*ast.FuncLit); isLit {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		if name, wgExpr, ok := waitGroupMethod(info, call); ok && name == "Add" {
			if obj := wgIdentity(info, wgExpr); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// receivesExternalChan reports whether the body (not counting nested
// function literals) receives from or ranges over a channel whose root
// variable is created outside the body — a done-channel, stop channel, or
// work queue that some outside owner can close.
func receivesExternalChan(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && chanRootExternal(info, x.X, body) {
				found = true
			}
		case *ast.RangeStmt:
			if t := typeOf(info, x.X); t != nil && isChanType(t) && chanRootExternal(info, x.X, body) {
				found = true
			}
		}
		return !found
	})
	return found
}

// chanRootExternal reports whether the channel expression is rooted at an
// object declared outside the body: a parameter, a captured local, a field
// of a captured value, or the receiver of a method call (`ctx.Done()`).
func chanRootExternal(info *types.Info, e ast.Expr, body *ast.BlockStmt) bool {
	obj := chanRoot(info, e)
	return obj != nil && (obj.Pos() < body.Pos() || obj.Pos() > body.End())
}

func chanRoot(info *types.Info, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return chanRoot(info, x.X)
	case *ast.IndexExpr:
		return chanRoot(info, x.X)
	case *ast.StarExpr:
		return chanRoot(info, x.X)
	case *ast.CallExpr:
		// `<-ctx.Done()`: the lifecycle handle is the call's receiver.
		if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
			return chanRoot(info, sel.X)
		}
	}
	return nil
}

// isChanType reports whether the type is (or points to) a channel.
func isChanType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isContextType reports whether the type is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
