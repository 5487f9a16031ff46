package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockGuardAnalyzer machine-checks the mutex conventions of the concurrent
// subsystems (the sharded containers, the live runtime). A struct field
// annotated
//
//	m map[string]V // ccvet:guardedby mu
//
// may only be accessed while `mu` — a sibling sync.Mutex or sync.RWMutex
// field of the same struct value — is held: read accesses need at least the
// read lock, writes need the exclusive lock. The check is intra-procedural
// over a CFG-lite walk of each function body:
//
//   - lock state is tracked per access path ("sh.mu", "co.mu"), so the
//     repo's aliasing idiom `sh := &v.shards[i]; sh.mu.Lock(); sh.m[k] = …`
//     is understood — the lock call and the field access agree on the base
//     path, whichever local name the caller picked;
//   - `defer mu.Unlock()` keeps the lock held to the end of the body;
//     branches are merged conservatively (held only if held on every
//     non-terminating path), so an early `mu.Unlock(); return` does not
//     leak an unlocked state into the fall-through;
//   - function literals are analyzed with an empty lock state: a spawned or
//     escaping closure does not inherit its creator's locks;
//   - a value freshly constructed in the function (`v := &T{…}`, `new(T)`)
//     is not yet shared, so constructor initialization needs no lock;
//   - a function entered with the lock already held declares it with
//     //ccvet:holds mu on its doc comment; lockguard then requires the
//     exclusive lock at every call site instead.
//
// The paper's model makes every scheduling decision adversary-visible; an
// unguarded access is hidden nondeterminism (a data race) that would let
// live runs and parallel explorations diverge from any schedule the model
// can express, invalidating replay-based conformance.
var LockGuardAnalyzer = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated // ccvet:guardedby mu may only be accessed with mu held (reads: RLock or Lock; writes: Lock); //ccvet:holds mu moves the obligation to call sites",
	Run:  runLockGuard,
}

// Lock levels per mutex path.
const (
	lockNone = 0
	lockRead = 1
	lockExcl = 2
)

func runLockGuard(pass *Pass) {
	guarded := collectGuarded(pass)
	holds := collectHolds(pass)
	if len(guarded) == 0 && len(holds) == 0 {
		return
	}
	lg := &lockGuard{pass: pass, guarded: guarded, holds: holds}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				lg.checkFunc(fd)
			}
		}
	}
}

type lockGuard struct {
	pass    *Pass
	guarded map[*types.Var]guardedField
	holds   map[*types.Func][]string
}

// lockEnv is the walker's state at one program point.
type lockEnv struct {
	held       map[string]int        // mutex path → lock level
	fresh      map[types.Object]bool // locals holding values not yet shared
	terminated bool                  // path ended (return / panic / branch)
}

func newLockEnv() *lockEnv {
	return &lockEnv{held: map[string]int{}, fresh: map[types.Object]bool{}}
}

func (e *lockEnv) clone() *lockEnv {
	held := make(map[string]int, len(e.held))
	for k, v := range e.held {
		held[k] = v
	}
	fresh := make(map[types.Object]bool, len(e.fresh))
	for k, v := range e.fresh {
		fresh[k] = v
	}
	return &lockEnv{held: held, fresh: fresh}
}

// merge conservatively joins alternative branch outcomes into e: a lock is
// held at the level every non-terminated branch (and, unless the branch set
// is exhaustive, e itself) guarantees. Terminated branches place no
// constraint — code after `mu.Unlock(); return` never falls through.
func (e *lockEnv) merge(exhaustive bool, branches ...*lockEnv) {
	alive := branches[:0]
	for _, b := range branches {
		if !b.terminated {
			alive = append(alive, b)
		}
	}
	if len(alive) == 0 {
		if exhaustive {
			e.terminated = true
		}
		return
	}
	states := alive
	if !exhaustive {
		states = append(states, e)
	}
	held := map[string]int{}
	first := states[0]
	for k, v := range first.held {
		m := v
		for _, b := range states[1:] {
			if bv := b.held[k]; bv < m {
				m = bv
			}
		}
		if m > lockNone {
			held[k] = m
		}
	}
	fresh := map[types.Object]bool{}
	for k := range first.fresh {
		all := true
		for _, b := range states[1:] {
			all = all && b.fresh[k]
		}
		if all {
			fresh[k] = true
		}
	}
	e.held = held
	e.fresh = fresh
}

// invalidate drops lock and freshness facts rooted at a reassigned
// identifier.
func (e *lockEnv) invalidate(obj types.Object, name string) {
	delete(e.fresh, obj)
	for k := range e.held {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && (k[len(name)] == '.' || k[len(name)] == '[')) {
			delete(e.held, k)
		}
	}
}

// checkFunc walks one declaration. A //ccvet:holds annotation seeds the
// entry state with the receiver's mutex held exclusively.
func (lg *lockGuard) checkFunc(fd *ast.FuncDecl) {
	env := newLockEnv()
	if fn, ok := lg.pass.Info.Defs[fd.Name].(*types.Func); ok {
		if guards := lg.holds[fn]; len(guards) > 0 {
			if recv := receiverName(fd); recv != "" {
				for _, g := range guards {
					env.held[recv+"."+g] = lockExcl
				}
			}
		}
	}
	lg.stmts(env, fd.Body.List)
}

// receiverName returns the declaration's receiver identifier, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func (lg *lockGuard) stmts(env *lockEnv, list []ast.Stmt) {
	for _, s := range list {
		if env.terminated {
			return
		}
		lg.stmt(env, s)
	}
}

func (lg *lockGuard) stmt(env *lockEnv, s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if lg.lockCall(env, st.X, false) {
			return
		}
		lg.expr(env, st.X)
		if isPanicCall(lg.pass, st.X) {
			env.terminated = true
		}
	case *ast.AssignStmt:
		lg.assign(env, st)
	case *ast.IncDecStmt:
		lg.writeTarget(env, st.X)
		lg.exprChildren(env, st.X)
	case *ast.DeferStmt:
		// A deferred Unlock/RUnlock keeps the lock held for the rest of
		// the body. Any other deferred call is walked normally (a deferred
		// closure runs with an unknowable lock state; analyzing it against
		// the current state is the pragmatic approximation).
		if lg.lockCall(env, st.Call, true) {
			return
		}
		lg.expr(env, st.Call)
	case *ast.GoStmt:
		// A spawned goroutine holds no locks, whatever the spawner holds.
		lg.exprList(newLockEnv(), st.Call.Args)
		if fl, ok := unparen(st.Call.Fun).(*ast.FuncLit); ok {
			lg.stmts(newLockEnv(), fl.Body.List)
		}
	case *ast.ReturnStmt:
		lg.exprList(env, st.Results)
		env.terminated = true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing statement list; for the
		// merge they behave like termination of this path.
		env.terminated = true
	case *ast.BlockStmt:
		lg.stmts(env, st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			lg.stmt(env, st.Init)
		}
		lg.expr(env, st.Cond)
		body := env.clone()
		lg.stmts(body, st.Body.List)
		if st.Else != nil {
			els := env.clone()
			lg.stmt(els, st.Else)
			env.merge(true, body, els)
		} else {
			env.merge(false, body)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lg.stmt(env, st.Init)
		}
		if st.Cond != nil {
			lg.expr(env, st.Cond)
		}
		body := env.clone()
		lg.stmts(body, st.Body.List)
		if st.Post != nil && !body.terminated {
			lg.stmt(body, st.Post)
		}
		env.merge(false, body)
	case *ast.RangeStmt:
		lg.expr(env, st.X)
		body := env.clone()
		if st.Key != nil {
			lg.invalidateExpr(body, st.Key)
		}
		if st.Value != nil {
			lg.invalidateExpr(body, st.Value)
		}
		lg.stmts(body, st.Body.List)
		env.merge(false, body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			lg.stmt(env, st.Init)
		}
		if st.Tag != nil {
			lg.expr(env, st.Tag)
		}
		lg.caseClauses(env, st.Body.List, hasDefaultClause(st.Body.List))
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			lg.stmt(env, st.Init)
		}
		lg.caseClauses(env, st.Body.List, hasDefaultClause(st.Body.List))
	case *ast.SelectStmt:
		var branches []*lockEnv
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				b := env.clone()
				if cc.Comm != nil {
					lg.stmt(b, cc.Comm)
				}
				lg.stmts(b, cc.Body)
				branches = append(branches, b)
			}
		}
		if len(branches) > 0 {
			env.merge(true, branches...)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lg.exprList(env, vs.Values)
					for i, name := range vs.Names {
						if obj := lg.pass.Info.Defs[name]; obj != nil {
							env.invalidate(obj, name.Name)
							if i < len(vs.Values) && isFreshExpr(vs.Values[i]) {
								env.fresh[obj] = true
							}
						}
					}
				}
			}
		}
	case *ast.LabeledStmt:
		lg.stmt(env, st.Stmt)
	case *ast.SendStmt:
		lg.expr(env, st.Chan)
		lg.expr(env, st.Value)
	}
}

func hasDefaultClause(list []ast.Stmt) bool {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func (lg *lockGuard) caseClauses(env *lockEnv, list []ast.Stmt, exhaustive bool) {
	var branches []*lockEnv
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok {
			b := env.clone()
			lg.exprList(b, cc.List)
			lg.stmts(b, cc.Body)
			branches = append(branches, b)
		}
	}
	if len(branches) > 0 {
		env.merge(exhaustive, branches...)
	}
}

// assign handles write checks, alias invalidation, and freshness.
func (lg *lockGuard) assign(env *lockEnv, st *ast.AssignStmt) {
	lg.exprList(env, st.Rhs)
	for i, lhs := range st.Lhs {
		lg.writeTarget(env, lhs)
		lg.exprChildren(env, lhs)
		if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if obj := lg.pass.Info.ObjectOf(id); obj != nil {
				env.invalidate(obj, id.Name)
				if len(st.Lhs) == len(st.Rhs) && isFreshExpr(st.Rhs[i]) {
					env.fresh[obj] = true
				}
			}
		}
	}
}

// invalidateExpr clears facts for a range variable.
func (lg *lockGuard) invalidateExpr(env *lockEnv, e ast.Expr) {
	if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
		if obj := lg.pass.Info.ObjectOf(id); obj != nil {
			env.invalidate(obj, id.Name)
		}
	}
}

// isFreshExpr recognizes constructions of values not yet shared with any
// other goroutine: composite literals, their addresses, and new(T).
func isFreshExpr(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lockCall recognizes and applies `path.Lock()` / `RLock` / `Unlock` /
// `RUnlock` on a sync.Mutex or sync.RWMutex. Deferred unlocks keep the
// lock held; deferred locks are nonsensical and ignored.
func (lg *lockGuard) lockCall(env *lockEnv, e ast.Expr, deferred bool) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := lg.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recvT := sig.Recv().Type()
	if p, ok := recvT.(*types.Pointer); ok {
		recvT = p.Elem()
	}
	if m, _ := isMutexType(recvT); !m {
		return false
	}
	_, path, ok := accessPath(lg.pass.Info, sel.X)
	if !ok {
		return true // a lock on an unresolvable path changes nothing we track
	}
	switch fn.Name() {
	case "Lock":
		if !deferred {
			env.held[path] = lockExcl
		}
	case "RLock":
		if !deferred && env.held[path] < lockRead {
			env.held[path] = lockRead
		}
	case "Unlock", "RUnlock":
		if !deferred {
			delete(env.held, path)
		}
	default:
		return false // TryLock etc.: conditional, not modeled
	}
	return true
}

// expr walks one expression: guarded reads, holds call sites, nested
// literals, and lock calls in sub-expressions.
func (lg *lockGuard) expr(env *lockEnv, e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.FuncLit:
		// An escaping closure runs with unknown locks: analyze with none.
		lg.stmts(newLockEnv(), x.Body.List)
		return
	case *ast.SelectorExpr:
		lg.checkAccess(env, x, false)
		lg.expr(env, x.X)
		return
	case *ast.CallExpr:
		lg.checkHoldsCall(env, x)
		// Builtin delete/clear mutate their map argument.
		if id, ok := unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := lg.pass.Info.ObjectOf(id).(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") && len(x.Args) > 0 {
				lg.writeTarget(env, x.Args[0])
			}
		}
		lg.expr(env, x.Fun)
		lg.exprList(env, x.Args)
		return
	}
	lg.exprChildren(env, e)
}

// exprChildren walks e's immediate children through expr.
func (lg *lockGuard) exprChildren(env *lockEnv, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if n == e {
			return true
		}
		if sub, ok := n.(ast.Expr); ok {
			lg.expr(env, sub)
			return false
		}
		return true
	})
}

func (lg *lockGuard) exprList(env *lockEnv, list []ast.Expr) {
	for _, e := range list {
		lg.expr(env, e)
	}
}

// checkAccess reports a guarded-field access without the required lock.
func (lg *lockGuard) checkAccess(env *lockEnv, sel *ast.SelectorExpr, write bool) {
	s, ok := lg.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fieldVar, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	g, ok := lg.guarded[originVar(fieldVar)]
	if !ok {
		return
	}
	root, base, resolvable := accessPath(lg.pass.Info, sel.X)
	if resolvable && env.fresh[root] {
		return // freshly constructed, not yet shared
	}
	what := "read of"
	need := lockRead
	if write {
		what = "write to"
		need = lockExcl
	}
	if !resolvable {
		lg.pass.Reportf(sel.Pos(), "%s %s, guarded by %q, through an unresolvable path; alias the owner to a local before locking",
			what, sel.Sel.Name, g.guard)
		return
	}
	guardPath := base + "." + g.guard
	if env.held[guardPath] >= need {
		return
	}
	if write && env.held[guardPath] == lockRead {
		lg.pass.Reportf(sel.Pos(), "write to %s with only the read lock of %s held; writes need %s.Lock()",
			exprString(sel), guardPath, guardPath)
		return
	}
	lg.pass.Reportf(sel.Pos(), "%s %s without holding %s (// ccvet:guardedby %s); lock it on every path to the access or annotate the function //ccvet:holds %s",
		what, exprString(sel), guardPath, g.guard, g.guard)
}

// writeTarget checks the written-through part of an assignment target: the
// guarded field being stored to (directly, through an index, or through a
// dereference).
func (lg *lockGuard) writeTarget(env *lockEnv, lhs ast.Expr) {
	switch x := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		lg.checkAccess(env, x, true)
	case *ast.IndexExpr:
		// Writing an element writes the container: m[k] = v mutates m.
		lg.writeTarget(env, x.X)
	case *ast.StarExpr:
		lg.writeTarget(env, x.X)
	}
}

// checkHoldsCall enforces //ccvet:holds at call sites: calling an annotated
// method requires its receiver's mutex exclusively held.
func (lg *lockGuard) checkHoldsCall(env *lockEnv, call *ast.CallExpr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := lg.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	guards := lg.holds[fn]
	if len(guards) == 0 {
		return
	}
	root, base, resolvable := accessPath(lg.pass.Info, sel.X)
	if resolvable && env.fresh[root] {
		return
	}
	for _, g := range guards {
		if !resolvable {
			lg.pass.Reportf(call.Pos(), "call of %s, which requires %q held (//ccvet:holds), through an unresolvable path", sel.Sel.Name, g)
			continue
		}
		guardPath := base + "." + g
		if env.held[guardPath] < lockExcl {
			lg.pass.Reportf(call.Pos(), "call of %s without holding %s, which the callee declares with //ccvet:holds %s",
				sel.Sel.Name, guardPath, g)
		}
	}
}

// isPanicCall reports whether the expression statement is a call of the
// panic builtin.
func isPanicCall(pass *Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "panic"
}
