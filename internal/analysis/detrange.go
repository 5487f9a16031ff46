package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRangeAnalyzer flags `range` over a map in the determinism-critical
// packages. Go randomizes map iteration order, so a map range anywhere on
// the path from protocol execution to a trace, scheme, or decision is a
// standing nondeterminism hazard — exactly the class of modeling bug a
// TLA+-style spec excludes by construction. The paper's replay arguments
// (Theorems 8 and 13) and the checker's reproducibility depend on runs being
// functions of the schedule alone.
//
// The one recognized idiom is collect-then-sort: a loop whose body only
// appends keys/values to slices (possibly behind `if` filters or
// `continue`), with every collected slice passed to a sort call in the
// statements immediately following the loop. Anything else needs either a
// rewrite or an explicit //ccvet:ignore detrange <reason> stating why the
// loop body is order-insensitive.
var DetRangeAnalyzer = &Analyzer{
	Name:      "detrange",
	Doc:       "map iteration order must never reach a trace, scheme, or decision: collect and sort, or justify with an ignore",
	AppliesTo: detRangeApplies,
	Run:       runDetRange,
}

// detRangePackages are the module-relative package trees whose determinism
// the model depends on.
var detRangePackages = []string{
	"internal/sim",
	"internal/checker",
	"internal/pattern",
	"internal/scheme",
	"internal/core",
	"internal/chaos",
	"internal/frontier",
	"internal/runtime",
	"internal/taxonomy",
	"cmd/ccchaos",
	"cmd/cclive",
	"cmd/cclattice",
	"cmd/ccpat",
}

func detRangeApplies(relPath string) bool {
	for _, p := range detRangePackages {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return true
		}
	}
	return false
}

func runDetRange(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			list := stmtList(n)
			if list == nil {
				return true
			}
			for i, s := range list {
				rs, ok := s.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := typeOf(pass.Info, rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				if isCollectAndSort(pass, rs, list[i+1:]) {
					continue
				}
				pass.Reportf(rs.Pos(), "iteration over map %s is nondeterministic; collect the keys into a slice and sort it first",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
			return true
		})
	}
}

// stmtList returns the statement list a node owns, so that a range statement
// can be inspected together with the statements that follow it.
func stmtList(n ast.Node) []ast.Stmt {
	switch x := n.(type) {
	case *ast.BlockStmt:
		return x.List
	case *ast.CaseClause:
		return x.Body
	case *ast.CommClause:
		return x.Body
	}
	return nil
}

// isCollectAndSort recognizes the sorted-iteration idiom: the body only
// appends to slices, and every appended slice is sorted by the consecutive
// sort calls directly after the loop.
func isCollectAndSort(pass *Pass, rs *ast.RangeStmt, following []ast.Stmt) bool {
	appended := map[types.Object]bool{}
	if !collectOnly(pass, rs.Body.List, appended) || len(appended) == 0 {
		return false
	}
	for _, s := range following {
		obj, ok := sortCallTarget(pass, s)
		if !ok {
			break
		}
		delete(appended, obj)
	}
	return len(appended) == 0
}

// collectOnly reports whether every statement is an append accumulation
// (`xs = append(xs, …)`), an if-guard around such statements, or a continue,
// recording the appended slice variables.
func collectOnly(pass *Pass, stmts []ast.Stmt, appended map[types.Object]bool) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return false
			}
			lhs, ok := unparen(st.Lhs[0]).(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return false
			}
			fn, ok := unparen(call.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			if b, ok := pass.Info.ObjectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
				return false
			}
			arg0, ok := unparen(call.Args[0]).(*ast.Ident)
			if !ok || pass.Info.ObjectOf(arg0) != pass.Info.ObjectOf(lhs) {
				return false
			}
			appended[pass.Info.ObjectOf(lhs)] = true
		case *ast.IfStmt:
			if st.Init != nil {
				return false
			}
			if !collectOnly(pass, st.Body.List, appended) {
				return false
			}
			if st.Else != nil {
				eb, ok := st.Else.(*ast.BlockStmt)
				if !ok || !collectOnly(pass, eb.List, appended) {
					return false
				}
			}
		case *ast.BranchStmt:
			if st.Tok.String() != "continue" || st.Label != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortCallTarget matches a statement of the form sort.X(slice, …) or
// slices.Sort*(slice, …) and returns the sorted slice's object.
func sortCallTarget(pass *Pass, s ast.Stmt) (types.Object, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	pkgID, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := pass.Info.ObjectOf(pkgID).(*types.PkgName)
	if !ok {
		return nil, false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
		default:
			return nil, false
		}
	case "slices":
		if !strings.HasPrefix(sel.Sel.Name, "Sort") {
			return nil, false
		}
	default:
		return nil, false
	}
	arg0, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.Info.ObjectOf(arg0)
	if obj == nil {
		return nil, false
	}
	return obj, true
}
