// Package detmaprange implements the vdtnlint analyzer forbidding
// unordered map iteration in determinism-critical packages.
//
// A `for k := range m` over a map visits keys in an order the runtime
// deliberately randomizes per process. If any byte of a trace, a routing
// decision, or an emitted table depends on that order, two runs of the
// same (config, seed) diverge — exactly the class of bug the pinned
// contact fingerprint and the 42 protocol×policy equivalence suites
// exist to rule out, but only for the seeds they sample.
//
// The analyzer stays silent for the one shape it can prove harmless:
// loops that only collect entries into local slices that are sorted
// before use (the canonical sorted-keys helper, wireless.PeersOf, the
// Medium.scan up/down staging). Everything else needs the keys sorted
// first (range slices.Sorted(maps.Keys(m))) or a justified
// //vdtnlint:unordered-ok annotation.
package detmaprange

import (
	"go/ast"
	"go/token"
	"go/types"

	"vdtn/internal/lint"
	"vdtn/internal/lint/lintcfg"
)

// Analyzer is the detmaprange analyzer.
var Analyzer = &lint.Analyzer{
	Name:      "detmaprange",
	Doc:       "forbid unordered map iteration in determinism-critical packages unless keys are sorted first or the loop is justified",
	Directive: "unordered-ok",
	AppliesTo: lintcfg.IsCritical,
	Run:       run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		// Track enclosing function bodies so the sort-sink check can look
		// downstream of the loop.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n, stack)
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *lint.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	if mapsIterCall(pass, rs.X) {
		pass.Reportf(rs.Pos(), "ranges over %s in nondeterministic order; sort the keys first (e.g. range slices.Sorted(maps.Keys(m))) or justify with //vdtnlint:unordered-ok (%s)",
			types.ExprString(rs.X), lintcfg.DocPath)
		return
	}
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if body := enclosingFuncBody(stack); body != nil && collectThenSorted(pass, rs, body) {
		return
	}
	pass.Reportf(rs.Pos(), "iterates over map %s in nondeterministic order; sort the keys first (e.g. range slices.Sorted(maps.Keys(m))) or justify with //vdtnlint:unordered-ok (%s)",
		types.ExprString(rs.X), lintcfg.DocPath)
}

// mapsIterCall reports whether x is a call to maps.Keys/Values/All, whose
// iteration order is as unordered as ranging the map itself.
func mapsIterCall(pass *lint.Pass, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// enclosingFuncBody returns the body of the innermost enclosing function
// on the node stack (the last element is the range statement itself).
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Body
		case *ast.FuncLit:
			return n.Body
		}
	}
	return nil
}

// collectThenSorted proves the order-insensitive collection shape: every
// statement in the loop body is a pure local collection step (append to a
// local slice, constant flag set, integer counter bump, or control flow
// around those), and every slice collected into is sorted after the loop.
// Any other side effect — writes through selectors or indexes, calls,
// early exits — defeats the proof and the loop is flagged.
func collectThenSorted(pass *lint.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) bool {
	collected := make(map[*types.Var]bool)
	if !safeCollectBody(pass, rs, rs.Body.List, collected) {
		return false
	}
	for v := range collected {
		if !sortedAfter(pass, funcBody, rs.End(), v) {
			return false
		}
	}
	return true
}

func safeCollectBody(pass *lint.Pass, rs *ast.RangeStmt, stmts []ast.Stmt, collected map[*types.Var]bool) bool {
	for _, s := range stmts {
		if !safeCollectStmt(pass, rs, s, collected) {
			return false
		}
	}
	return true
}

func safeCollectStmt(pass *lint.Pass, rs *ast.RangeStmt, s ast.Stmt, collected map[*types.Var]bool) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return safeCollectBody(pass, rs, s.List, collected)
	case *ast.IfStmt:
		if s.Init != nil && !safeCollectStmt(pass, rs, s.Init, collected) {
			return false
		}
		if hasCall(s.Cond) {
			return false
		}
		if !safeCollectBody(pass, rs, s.Body.List, collected) {
			return false
		}
		if s.Else != nil {
			return safeCollectStmt(pass, rs, s.Else, collected)
		}
		return true
	case *ast.SwitchStmt:
		if s.Init != nil && !safeCollectStmt(pass, rs, s.Init, collected) {
			return false
		}
		if hasCall(s.Tag) {
			return false
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if hasCall(e) {
					return false
				}
			}
			if !safeCollectBody(pass, rs, cc.Body, collected) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		// continue revisits the next key; break/goto make the collected
		// contents depend on which keys came first.
		return s.Tok == token.CONTINUE
	case *ast.IncDecStmt:
		v := localScalar(pass, rs, s.X)
		return v != nil && isInteger(v.Type())
	case *ast.AssignStmt:
		return safeAssign(pass, rs, s, collected)
	default:
		return false
	}
}

// safeAssign accepts `v = append(v, ...)` into a local slice (recorded in
// collected), constant stores to local scalars, and integer accumulation
// into local scalars. Everything else is order-sensitive or beyond the
// proof.
func safeAssign(pass *lint.Pass, rs *ast.RangeStmt, s *ast.AssignStmt, collected map[*types.Var]bool) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	v := localScalar(pass, rs, s.Lhs[0])
	if v == nil {
		return false
	}
	rhs := s.Rhs[0]
	switch s.Tok {
	case token.ASSIGN:
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
				if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.TypesInfo.Uses[target] == v {
					for _, arg := range call.Args[1:] {
						if hasCall(arg) {
							return false
						}
					}
					collected[v] = true
					return true
				}
			}
			return false
		}
		// Constant stores commute: `found = true` is the same whichever
		// key sets it. Anything key-dependent is not.
		tv, ok := pass.TypesInfo.Types[rhs]
		return ok && tv.Value != nil
	case token.ADD_ASSIGN:
		// Integer accumulation commutes exactly; float accumulation does
		// not (IEEE addition is order-sensitive).
		return isInteger(v.Type()) && !hasCall(rhs)
	default:
		return false
	}
}

// localScalar resolves e to a variable declared in the enclosing function
// (not the range statement's own iteration variables, not package state,
// not anything reached through a selector or index).
func localScalar(pass *lint.Pass, rs *ast.RangeStmt, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	// Package-level variables are shared state; writing them from an
	// unordered loop is order-sensitive for any non-commutative value.
	if v.Parent() == pass.Pkg.Scope() {
		return nil
	}
	// The loop's own key/value variables are fine to read but are not
	// collection targets.
	for _, kv := range []ast.Expr{rs.Key, rs.Value} {
		if kid, ok := kv.(*ast.Ident); ok && pass.TypesInfo.Defs[kid] == v {
			return nil
		}
	}
	return v
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// hasCall reports whether e contains any call expression (other than the
// builtin len/cap, which are pure).
func hasCall(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return true
			}
			found = true
			return false
		}
		return true
	})
	return found
}

// sortedAfter reports whether v is passed to a recognized sort call
// somewhere after pos inside body.
func sortedAfter(pass *lint.Pass, body *ast.BlockStmt, pos token.Pos, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
			found = true
			return false
		}
		return true
	})
	return found
}

func isSortCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Ints", "Strings", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
