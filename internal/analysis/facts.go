package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file is the cross-function half of the framework: a whole-repo
// call graph over the loaded packages, per-function facts exported by
// the fact generators below ("ranges-over-map",
// "vends-workspace-buffer", "retains-workspace-arg"), and transitive
// queries the maporder / wsretain passes are built on. Facts propagate
// across package boundaries because the FactDB is built over every
// package the loader has type-checked — not just the one a Pass is
// currently looking at — so a helper three calls deep in another
// package that iterates a map is visible from its caller.
//
// The graph is static: direct calls resolve through the type-checker's
// object resolution, interface method calls are expanded to every
// in-repo concrete implementation (class-hierarchy analysis), and
// calls through plain function values stay unresolved.

// CalleeEdge is one static call-graph edge out of a function.
type CalleeEdge struct {
	Pos    token.Pos
	Callee *types.Func
}

// FuncInfo carries one function's locally-generated facts.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// MapRanges are order-sensitive map iterations: range statements
	// over a map whose body does more than collect keys/values or
	// fold an order-insensitive integer/bool aggregate.
	MapRanges []token.Pos
	// Callees are the function's static call-graph edges.
	Callees []CalleeEdge

	// RetainedParams lists parameter indices the function stores into
	// state that outlives the step: a package-level variable, a
	// goroutine, or a callee that transitively does either.
	RetainedParams []int
	// Vends reports that the function returns a tensor vended by a
	// tensor.Workspace (directly or through a vending callee) — the
	// value is arena-owned and dies at the next Reset.
	Vends bool
	// CallsReset reports that the function calls Workspace.Reset —
	// it is a step boundary for the wsretain pass.
	CallsReset bool
}

// FactDB is the whole-repo fact database passes query.
type FactDB struct {
	fns map[*types.Func]*FuncInfo
	// named holds every named (non-interface) type in the loaded
	// packages, for class-hierarchy resolution of interface calls.
	named []*types.Named

	implMemo map[*types.Func][]*types.Func
	mapMemo  map[*types.Func]*mapReach
}

type mapReach struct {
	done bool
	fn   *types.Func // function owning the iteration
	path []string
	ok   bool
}

// BuildFactDB generates local facts for every function of the given
// packages, links the call graph, and runs the workspace vend/retain
// fixpoints. Passes receive the database through Pass.Facts.
func BuildFactDB(pkgs []*Package) *FactDB {
	db := &FactDB{
		fns:      map[*types.Func]*FuncInfo{},
		implMemo: map[*types.Func][]*types.Func{},
		mapMemo:  map[*types.Func]*mapReach{},
	}
	// Index declarations and named types first so call resolution can
	// tell in-repo functions from externals.
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					db.named = append(db.named, n)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				db.fns[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, fi := range db.fns {
		db.generateLocalFacts(fi)
	}
	db.workspaceFixpoint()
	return db
}

// Info returns the facts for fn, or nil for functions outside the
// loaded packages.
func (db *FactDB) Info(fn *types.Func) *FuncInfo {
	if db == nil {
		return nil
	}
	return db.fns[fn]
}

// ---------------------------------------------------------------------
// Local fact generation

// generateLocalFacts walks one function body, recording its call edges
// and its order-sensitive map iterations.
func (db *FactDB) generateLocalFacts(fi *FuncInfo) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			db.addCallEdges(fi, n)
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok && !orderInsensitiveBody(info, n.Body.List) {
					fi.MapRanges = append(fi.MapRanges, n.Pos())
				}
			}
		}
		return true
	})
}

// addCallEdges resolves one call expression into call-graph edges: one
// for a direct call of an in-repo function, one per in-repo
// implementation for an interface method call, none otherwise
// (builtins, conversions, function values, external functions).
func (db *FactDB) addCallEdges(fi *FuncInfo, call *ast.CallExpr) {
	info := fi.Pkg.Info
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if _, inRepo := db.fns[fn]; inRepo {
		fi.Callees = append(fi.Callees, CalleeEdge{Pos: call.Pos(), Callee: fn})
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		for _, impl := range db.implementers(fn) {
			fi.Callees = append(fi.Callees, CalleeEdge{Pos: call.Pos(), Callee: impl})
		}
	}
}

// orderInsensitiveBody reports whether a map-range body is one of the
// shapes whose result cannot depend on iteration order: collecting
// keys/values into a slice (to be sorted by the caller), deleting
// entries, or folding integer/boolean aggregates (+=, |=, &=, ^=,
// counters). Float accumulation is NOT order-insensitive — IEEE
// addition is non-associative, so summing map values in random order
// breaks bit-identity — and anything with control flow is flagged.
func orderInsensitiveBody(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(info, s) {
				return false
			}
		case *ast.IncDecStmt:
			if !integerTyped(info, s.X) {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "delete" {
				return false
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return false
			}
		case *ast.EmptyStmt:
		default:
			return false
		}
	}
	return true
}

func orderInsensitiveAssign(info *types.Info, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// s = append(s, ...) — collecting for a later sort.
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return false
		}
		_, isBuiltin := info.Uses[id].(*types.Builtin)
		return isBuiltin
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return integerTyped(info, s.Lhs[0])
	}
	return false
}

func integerTyped(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// ---------------------------------------------------------------------
// Class-hierarchy analysis

// implementers resolves an interface method to the corresponding
// concrete methods of every in-repo type implementing the interface.
func (db *FactDB) implementers(ifaceMethod *types.Func) []*types.Func {
	if impls, ok := db.implMemo[ifaceMethod]; ok {
		return impls
	}
	sig := ifaceMethod.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		db.implMemo[ifaceMethod] = nil
		return nil
	}
	var impls []*types.Func
	for _, n := range db.named {
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, inRepo := db.fns[m]; inRepo {
			impls = append(impls, m)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].FullName() < impls[j].FullName() })
	db.implMemo[ifaceMethod] = impls
	return impls
}

// ---------------------------------------------------------------------
// Transitive queries

// MapRangeReach reports whether fn transitively reaches an
// order-sensitive map iteration (through any call edge — error paths
// feed committed output too), returning the function owning the
// iteration and the call path to it.
func (db *FactDB) MapRangeReach(fn *types.Func) (*types.Func, []string, bool) {
	if m := db.mapReachOf(fn, map[*types.Func]bool{}); m != nil && m.ok {
		return m.fn, m.path, true
	}
	return nil, nil, false
}

func (db *FactDB) mapReachOf(fn *types.Func, visiting map[*types.Func]bool) *mapReach {
	if m, ok := db.mapMemo[fn]; ok && m.done {
		return m
	}
	if visiting[fn] {
		return nil // cycle: resolved by another path or not at all
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	fi := db.fns[fn]
	m := &mapReach{done: true}
	if fi == nil {
		db.mapMemo[fn] = m
		return m
	}
	if len(fi.MapRanges) > 0 {
		m.ok = true
		m.fn = fn
		db.mapMemo[fn] = m
		return m
	}
	for _, e := range fi.Callees {
		sub := db.mapReachOf(e.Callee, visiting)
		if sub != nil && sub.ok {
			m.ok = true
			m.fn = sub.fn
			m.path = append([]string{e.Callee.Name()}, sub.path...)
			break
		}
	}
	db.mapMemo[fn] = m
	return m
}

// ---------------------------------------------------------------------
// Workspace vend/retain fixpoint

// wsMethod matches a method on tensor.Workspace (real package or an
// analysistest fixture named "tensor") by name.
func wsMethod(fn *types.Func, names ...string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Workspace" {
		return false
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	base := pkg.Path()
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if base != "tensor" {
		return false
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// workspaceFixpoint iterates vend/retain summaries until stable:
// vending propagates down return chains, retention propagates up call
// chains, both across package boundaries.
func (db *FactDB) workspaceFixpoint() {
	for iter := 0; iter < 16; iter++ {
		changed := false
		for _, fi := range db.fns {
			vends, retained, callsReset := db.wsSummary(fi)
			if vends != fi.Vends || callsReset != fi.CallsReset || !equalInts(retained, fi.RetainedParams) {
				changed = true
				fi.Vends = vends
				fi.RetainedParams = retained
				fi.CallsReset = callsReset
			}
		}
		if !changed {
			return
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wsSummary computes one function's workspace summary under the
// current database state.
func (db *FactDB) wsSummary(fi *FuncInfo) (vends bool, retained []int, callsReset bool) {
	a := db.AnalyzeWorkspace(fi)
	seen := map[int]bool{}
	for _, esc := range a.Escapes {
		if esc.ParamIndex >= 0 && !seen[esc.ParamIndex] {
			seen[esc.ParamIndex] = true
			retained = append(retained, esc.ParamIndex)
		}
	}
	sort.Ints(retained)
	return a.ReturnsVended, retained, a.CallsReset
}

// WSEscape is one place a workspace-vended value (or a parameter)
// escapes the step: a package-level store, a goroutine capture, or a
// hand-off to a retaining callee.
type WSEscape struct {
	Pos  token.Pos
	Kind string // "global", "goroutine", "callee"
	Desc string
	// ParamIndex is ≥ 0 when the escaping value is the function's own
	// parameter (exported as a retention fact); -1 when it is a value
	// vended inside this function (reported as a finding).
	ParamIndex int
	// Vended marks escapes of values vended inside the function.
	Vended bool
}

// WSAnalysis is the per-function result the wsretain pass reports
// from.
type WSAnalysis struct {
	Escapes       []WSEscape
	ReturnsVended bool
	// VendedReturns are return sites of vended values (flagged by the
	// pass only when the function is a step boundary).
	VendedReturns []token.Pos
	CallsReset    bool
}

// AnalyzeWorkspace runs the local vend/escape analysis for one
// function under the current fact database.
func (db *FactDB) AnalyzeWorkspace(fi *FuncInfo) *WSAnalysis {
	info := fi.Pkg.Info
	res := &WSAnalysis{}

	// Parameter variables, indexed for retention facts.
	paramIdx := map[*types.Var]int{}
	if sig, ok := fi.Fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			paramIdx[sig.Params().At(i)] = i
		}
	}

	// vended: local variables holding arena-owned values; grown to a
	// fixpoint over simple assignments.
	vended := map[*types.Var]bool{}
	vendedExpr := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				return vended[v]
			}
		case *ast.CallExpr:
			var fn *types.Func
			switch fun := e.Fun.(type) {
			case *ast.Ident:
				fn, _ = info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				fn, _ = info.Uses[fun.Sel].(*types.Func)
			}
			if fn == nil {
				return false
			}
			if wsMethod(fn, "Get", "GetRaw") {
				return true
			}
			if sub := db.fns[fn]; sub != nil && sub.Vends {
				return true
			}
		}
		return false
	}

	for pass := 0; pass < 4; pass++ {
		grew := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Defs[id].(*types.Var)
				if !ok {
					v, ok = info.Uses[id].(*types.Var)
					if !ok {
						continue
					}
				}
				if !vended[v] && vendedExpr(as.Rhs[i]) {
					vended[v] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	// classify reports the escape of one expression, resolving whether
	// it is a vended value or a parameter.
	classify := func(e ast.Expr, pos token.Pos, kind, desc string) {
		idx := -1
		isVended := vendedExpr(e)
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if i, isParam := paramIdx[v]; isParam {
					idx = i
				}
			}
		}
		if !isVended && idx < 0 {
			return
		}
		res.Escapes = append(res.Escapes, WSEscape{
			Pos: pos, Kind: kind, Desc: desc, ParamIndex: idx, Vended: isVended,
		})
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				if root, ok := pkgLevelRoot(info, n.Lhs[i]); ok {
					classify(n.Rhs[i], n.Rhs[i].Pos(), "global",
						fmt.Sprintf("stored into package-level %s", root))
				}
			}
		case *ast.GoStmt:
			// Arguments passed to the goroutine and captures of its
			// closure both outlive the launching frame.
			for _, arg := range n.Call.Args {
				classify(arg, arg.Pos(), "goroutine", "passed to a goroutine")
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					if v, ok := info.Uses[id].(*types.Var); ok {
						if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
							classify(id, id.Pos(), "goroutine", "captured by a goroutine")
						}
					}
					return true
				})
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if vendedExpr(r) {
					res.ReturnsVended = true
					res.VendedReturns = append(res.VendedReturns, r.Pos())
				}
			}
		case *ast.CallExpr:
			var fn *types.Func
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				fn, _ = info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				fn, _ = info.Uses[fun.Sel].(*types.Func)
			}
			if fn == nil {
				return true
			}
			if wsMethod(fn, "Reset") {
				res.CallsReset = true
			}
			if sub := db.fns[fn]; sub != nil && len(sub.RetainedParams) > 0 {
				for _, pi := range sub.RetainedParams {
					if pi < len(n.Args) {
						classify(n.Args[pi], n.Args[pi].Pos(), "callee",
							fmt.Sprintf("passed to %s, which retains argument %d beyond the step", fn.Name(), pi))
					}
				}
			}
		}
		return true
	})
	return res
}

// pkgLevelRoot reports whether an assignment target is rooted at a
// package-level variable (directly, or a field/element of one),
// returning its name.
func pkgLevelRoot(info *types.Info, e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok {
				return "", false
			}
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return v.Name(), true
			}
			return "", false
		case *ast.SelectorExpr:
			// p.F where p is a package name → package-level var in
			// another package; otherwise recurse into the base.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
						return v.Name(), true
					}
					return "", false
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// ---------------------------------------------------------------------
// Debug dump

// Dump writes the database in a stable text form (the seglint -facts
// flag) for debugging fact propagation.
func (db *FactDB) Dump(w io.Writer) {
	var fns []*FuncInfo
	for _, fi := range db.fns {
		fns = append(fns, fi)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Fn.FullName() < fns[j].Fn.FullName() })
	for _, fi := range fns {
		var facts []string
		if len(fi.MapRanges) > 0 {
			facts = append(facts, fmt.Sprintf("ranges-over-map(%d)", len(fi.MapRanges)))
		}
		if fi.Vends {
			facts = append(facts, "vends-workspace-buffer")
		}
		if len(fi.RetainedParams) > 0 {
			parts := make([]string, len(fi.RetainedParams))
			for i, p := range fi.RetainedParams {
				parts[i] = fmt.Sprint(p)
			}
			facts = append(facts, "retains-args("+strings.Join(parts, ",")+")")
		}
		if fi.CallsReset {
			facts = append(facts, "step-boundary")
		}
		if len(facts) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\n", fi.Fn.FullName(), strings.Join(facts, " "))
	}
}
