// Package lockorder implements the vdtnlint analyzer enforcing documented
// lock hierarchies — concretely, the trace store's shard → mu → root
// order from internal/experiments/store.go.
//
// The stakes: put holds its shard flock around a trace install, so any
// lock a writer takes under that flock must never be held by a GC helper
// while it takes a shard flock, or two runners sharing a cache directory
// deadlock. That inversion type-checks, builds, and passes every test
// that doesn't race two processes over one directory — the million-node
// regime is exactly where it would finally fire. The store now takes only
// the shard flock; the inner classes guard against one being added back
// the wrong way round.
//
// The analyzer classifies acquisitions through the lintcfg.LockOrder
// spec (lock-returning helper functions, sync.Mutex fields), summarizes
// which classes every function in the package may acquire (transitively,
// within the package), and then walks each function body in source
// order tracking what is held: any acquisition — direct or through a
// callee — of a class whose rank is not strictly above every held
// class's rank is flagged.
//
// Approximations, chosen to keep the model honest on this codebase:
// function literals are scanned as independent functions with an empty
// held set (and do not contribute to summaries), and a deferred call to
// anything other than an unlock is summary-checked at the defer site.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"

	"vdtn/internal/lint"
	"vdtn/internal/lint/lintcfg"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &lint.Analyzer{
	Name:      "lockorder",
	Doc:       "flag lock acquisitions that invert a documented lock hierarchy (trace store: shard → mu → root)",
	Directive: "lockorder-ok",
	AppliesTo: func(path string) bool {
		for _, p := range lintcfg.LockOrder.Packages {
			if path == p {
				return true
			}
		}
		return false
	},
	Run: run,
}

type classSet map[*lintcfg.LockClass]bool

type analysis struct {
	pass    *lint.Pass
	spec    *lintcfg.LockOrderSpec
	decls   map[*types.Func]*ast.FuncDecl
	acquire map[*types.Func]classSet // transitive, within the package
}

func run(pass *lint.Pass) error {
	a := &analysis{
		pass:    pass,
		spec:    &lintcfg.LockOrder,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		acquire: make(map[*types.Func]classSet),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				a.decls[fn] = fd
			}
		}
	}
	a.summarize()
	for fn, fd := range a.decls {
		if a.exempt(fn) {
			continue
		}
		s := &scanner{a: a, unlockVars: make(map[*types.Var]*lintcfg.LockClass)}
		s.stmts(fd.Body.List)
	}
	// Function literals: independent scan, empty held set.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				s := &scanner{a: a, unlockVars: make(map[*types.Var]*lintcfg.LockClass)}
				s.stmts(lit.Body.List)
			}
			return true
		})
	}
	return nil
}

// funcKey renders fn the way the spec writes it: "(*T).name" for
// methods, bare "name" for package-level functions.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return fn.Name()
	}
	return fmt.Sprintf("(*%s).%s", named.Obj().Name(), fn.Name())
}

func (a *analysis) exempt(fn *types.Func) bool {
	key := funcKey(fn)
	for _, e := range a.spec.Exempt {
		if e == key {
			return true
		}
	}
	return false
}

// lockFuncClass classifies a call to a lock-returning helper declared in
// the spec, or nil.
func (a *analysis) lockFuncClass(call *ast.CallExpr) *lintcfg.LockClass {
	fn := a.callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != a.pass.Pkg {
		return nil
	}
	key := funcKey(fn)
	for i := range a.spec.Classes {
		c := &a.spec.Classes[i]
		for _, name := range c.Funcs {
			if name == key {
				return c
			}
		}
	}
	return nil
}

// mutexClass classifies s.mu.Lock()/s.mu.Unlock() calls against the
// spec's "Type.field" mutex declarations, returning the class and
// whether the call locks (true) or unlocks (false).
func (a *analysis) mutexClass(call *ast.CallExpr) (*lintcfg.LockClass, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" {
		return nil, false, false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	recvT := a.pass.TypesInfo.TypeOf(field.X)
	if recvT == nil {
		return nil, false, false
	}
	if p, ok := recvT.(*types.Pointer); ok {
		recvT = p.Elem()
	}
	named, ok := recvT.(*types.Named)
	if !ok {
		return nil, false, false
	}
	key := named.Obj().Name() + "." + field.Sel.Name
	for i := range a.spec.Classes {
		c := &a.spec.Classes[i]
		for _, name := range c.Mutexes {
			if name == key {
				return c, sel.Sel.Name == "Lock", true
			}
		}
	}
	return nil, false, false
}

func (a *analysis) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := a.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := a.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// summarize computes, to fixpoint, the set of lock classes each declared
// function may acquire — directly or through same-package callees.
// Exempt functions (the lock implementations themselves) contribute the
// class their name is declared under, not their bodies.
func (a *analysis) summarize() {
	for fn := range a.decls {
		a.acquire[fn] = make(classSet)
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range a.decls {
			if a.exempt(fn) {
				continue
			}
			set := a.acquire[fn]
			grow := func(c *lintcfg.LockClass) {
				if !set[c] {
					set[c] = true
					changed = true
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if c := a.lockFuncClass(call); c != nil {
					grow(c)
					return true
				}
				if c, locks, ok := a.mutexClass(call); ok {
					if locks {
						grow(c)
					}
					return true
				}
				if callee := a.callee(call); callee != nil {
					for c := range a.acquire[callee] {
						grow(c)
					}
				}
				return true
			})
		}
	}
}

// held is one acquired lock in the scanner's linear walk.
type held struct {
	class *lintcfg.LockClass
	via   *types.Var // the unlock variable, when bound
}

type scanner struct {
	a          *analysis
	held       []held
	unlockVars map[*types.Var]*lintcfg.LockClass
}

func (s *scanner) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *scanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.AssignStmt:
		s.assign(st)
	case *ast.DeferStmt:
		s.deferStmt(st)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond)
		s.stmts(st.Body.List)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond)
		s.stmts(st.Body.List)
		if st.Post != nil {
			s.stmt(st.Post)
		}
	case *ast.RangeStmt:
		s.expr(st.X)
		s.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Tag)
		for _, c := range st.Body.List {
			s.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		for _, c := range st.Body.List {
			s.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				s.stmt(cc.Comm)
			}
			s.stmts(cc.Body)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.GoStmt:
		// The spawned goroutine's body is scanned independently; its
		// argument expressions evaluate here.
		for _, arg := range st.Call.Args {
			s.expr(arg)
		}
	default:
		if st != nil {
			ast.Inspect(st, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if e, ok := n.(ast.Expr); ok {
					if call, ok := e.(*ast.CallExpr); ok {
						s.call(call, nil)
						return false
					}
				}
				return true
			})
		}
	}
}

// expr walks an expression for calls, skipping function literal bodies
// (they execute later, under their own scan).
func (s *scanner) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			s.call(call, nil)
			return false
		}
		return true
	})
}

// assign handles `unlock := s.lockShard(key)` binding forms before
// falling back to the generic call walk.
func (s *scanner) assign(st *ast.AssignStmt) {
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if c := s.a.lockFuncClass(call); c != nil {
				for _, arg := range call.Args {
					s.expr(arg)
				}
				var bind *types.Var
				if id, ok := st.Lhs[0].(*ast.Ident); ok {
					if v, ok := s.objOf(id).(*types.Var); ok {
						bind = v
						s.unlockVars[v] = c
					}
				}
				s.acquireLock(c, bind, call)
				return
			}
		}
	}
	for _, e := range st.Rhs {
		s.expr(e)
	}
	for _, e := range st.Lhs {
		if _, ok := e.(*ast.Ident); !ok {
			s.expr(e)
		}
	}
}

func (s *scanner) deferStmt(st *ast.DeferStmt) {
	call := st.Call
	// defer unlock() / defer s.mu.Unlock(): the lock stays held to the
	// end of the function — which is exactly what the held set models.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := s.objOf(id).(*types.Var); ok {
			if _, isUnlock := s.unlockVars[v]; isUnlock {
				return
			}
		}
	}
	if _, locks, ok := s.a.mutexClass(call); ok && !locks {
		return
	}
	// Anything else deferred is summary-checked here, conservatively: at
	// this point the locks now held are the ones the defer may run under.
	s.call(call, nil)
	for _, arg := range call.Args {
		s.expr(arg)
	}
}

// call processes one call expression: acquisition, release, or a
// summary check against what the callee may acquire.
func (s *scanner) call(call *ast.CallExpr, bindTo *types.Var) {
	for _, arg := range call.Args {
		s.expr(arg)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		s.expr(sel.X)
	}

	if c := s.a.lockFuncClass(call); c != nil {
		s.acquireLock(c, bindTo, call)
		return
	}
	if c, locks, ok := s.a.mutexClass(call); ok {
		if locks {
			s.acquireLock(c, nil, call)
		} else {
			s.release(c, nil)
		}
		return
	}
	// unlock() through a bound variable.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := s.objOf(id).(*types.Var); ok {
			if c, isUnlock := s.unlockVars[v]; isUnlock {
				s.release(c, v)
				return
			}
		}
	}
	if callee := s.a.callee(call); callee != nil {
		for c := range s.a.acquire[callee] {
			s.checkOrder(c, call, callee)
		}
	}
}

func (s *scanner) objOf(id *ast.Ident) types.Object {
	if obj := s.a.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return s.a.pass.TypesInfo.Defs[id]
}

func (s *scanner) acquireLock(c *lintcfg.LockClass, via *types.Var, at *ast.CallExpr) {
	s.checkOrder(c, at, nil)
	s.held = append(s.held, held{class: c, via: via})
}

func (s *scanner) release(c *lintcfg.LockClass, via *types.Var) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].class == c && (via == nil || s.held[i].via == via || s.held[i].via == nil) {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

func (s *scanner) checkOrder(c *lintcfg.LockClass, at *ast.CallExpr, through *types.Func) {
	for _, h := range s.held {
		var what string
		switch {
		case h.class == c:
			what = fmt.Sprintf("re-acquires the %s lock already held (self-deadlock)", c.Name)
		case h.class.Rank > c.Rank:
			what = fmt.Sprintf("acquires the %s lock while holding the %s lock", c.Name, h.class.Name)
		default:
			continue
		}
		if through != nil {
			what = fmt.Sprintf("call to %s %s", through.Name(), what)
		}
		s.a.pass.Reportf(at.Pos(), "%s; the documented order is %s (%s)", what, orderString(s.a.spec), lintcfg.DocPath)
		return
	}
}

// orderString renders the hierarchy low-rank-first, e.g. "shard → mu → root".
func orderString(spec *lintcfg.LockOrderSpec) string {
	classes := make([]*lintcfg.LockClass, len(spec.Classes))
	for i := range spec.Classes {
		classes[i] = &spec.Classes[i]
	}
	for i := range classes {
		for j := i + 1; j < len(classes); j++ {
			if classes[j].Rank < classes[i].Rank {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	out := ""
	for i, c := range classes {
		if i > 0 {
			out += " → "
		}
		out += c.Name
	}
	return out
}
