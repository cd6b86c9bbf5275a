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
// the fact generators below ("allocates", "ranges-over-map",
// "vends-workspace-buffer", "retains-workspace-arg"), and transitive
// queries the hotalloc / maporder / wsretain passes are built on.
// Facts propagate across package boundaries because the FactDB is
// built over every package the loader has type-checked — not just the
// one a Pass is currently looking at — so a helper three calls deep in
// another package that allocates or iterates a map is visible from the
// annotated entry point.
//
// The graph is static: direct calls resolve through the type-checker's
// object resolution, interface method calls are expanded to every
// in-repo concrete implementation (class-hierarchy analysis), and
// calls through plain function values stay unresolved (the hotalloc
// pass surfaces those as unverifiable rather than guessing).

// HotPathDirective marks a function as an allocation-free hot-path
// root in its doc comment:
//
//	//seglint:hotpath <why this path must stay allocation-free>
//
// The function and everything it transitively calls (outside cold
// panic/error-construction regions) must be allocation-free; the
// hotalloc pass enforces it.
const HotPathDirective = "//seglint:hotpath"

// Site is one classified source position a fact refers to.
type Site struct {
	Pos  token.Pos
	Kind string // "make", "append", "closure", "go", "boxing", ...
	Desc string // human-readable detail for the finding message
}

// CalleeEdge is one static call-graph edge out of a function.
type CalleeEdge struct {
	Pos    token.Pos
	Callee *types.Func
	// Cold marks edges inside panic arguments or error-construction
	// branches; the hot-path traversal does not follow them.
	Cold bool
	// Via names how the edge was resolved ("" for a direct call,
	// "interface <name>" for a CHA-expanded dynamic call).
	Via string
}

// FuncInfo carries one function's locally-generated facts.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// HotPath is set by a //seglint:hotpath doc-comment directive.
	HotPath       bool
	HotPathReason string

	// Allocs are direct allocation sites outside cold regions.
	Allocs []Site
	// ExtCalls are calls (outside cold regions) into functions whose
	// body the loader cannot see and that are not on the
	// allocation-free whitelist — assumed to allocate.
	ExtCalls []Site
	// DynCalls are unresolvable dynamic calls (function values) in hot
	// regions.
	DynCalls []Site
	// MapRanges are order-sensitive map iterations: range statements
	// over a map whose body does more than collect keys/values or
	// fold an order-insensitive integer/bool aggregate.
	MapRanges []Site
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
	fset *token.FileSet
	fns  map[*types.Func]*FuncInfo
	// named holds every named (non-interface) type in the loaded
	// packages, for class-hierarchy resolution of interface calls.
	named []*types.Named

	implMemo map[*types.Func][]*types.Func

	hotOnce bool
	hot     map[*types.Func]*HotChain

	mapMemo map[*types.Func]*mapReach
}

// HotChain records how a function became hot-path: the annotated root
// and the call path from it.
type HotChain struct {
	Root *types.Func
	Path []string // function names from the root, excluding the root
}

// Describe renders the chain for a finding message.
func (h *HotChain) Describe() string {
	root := h.Root.Name()
	if len(h.Path) == 0 {
		return fmt.Sprintf("//seglint:hotpath %s", root)
	}
	return fmt.Sprintf("//seglint:hotpath %s via %s", root, strings.Join(h.Path, " → "))
}

type mapReach struct {
	done bool
	site Site
	fn   *types.Func // function owning the site
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
	if len(pkgs) > 0 {
		db.fset = pkgs[0].Fset
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
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				fi.HotPath, fi.HotPathReason = hotPathDirective(fd)
				db.fns[fn] = fi
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

// hotPathDirective scans a function's doc comment for
// //seglint:hotpath.
func hotPathDirective(fd *ast.FuncDecl) (bool, string) {
	if fd.Doc == nil {
		return false, ""
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, HotPathDirective); ok {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

// ---------------------------------------------------------------------
// Local fact generation

// allocFreePkgs are external packages whose functions are trusted not
// to allocate (pure math and atomics).
var allocFreePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allocFreeFuncs whitelists individual external functions/methods by
// full name, for externals that are allocation-free but live in
// packages that are not.
var allocFreeFuncs = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.Mutex).TryLock":   true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
	"(*sync.WaitGroup).Add":   true,
	"(*sync.WaitGroup).Done":  true,
	"(*sync.WaitGroup).Wait":  true,
	"(*sync.Map).Load":        true,
	// Once.Do is one atomic load after the first call; what the first
	// call runs is start-up work by construction, not steady state.
	"(*sync.Once).Do":         true,
	"(time.Duration).Seconds": true,
	"sort.SearchInts":         true,
	"sort.Search":             true,
	"sort.SearchFloat64s":     true,
	"runtime.GOMAXPROCS":      true,
	// math/rand draws (and in-place reseeding) mutate internal state
	// without allocating.
	"(*math/rand.Rand).Float64":     true,
	"(*math/rand.Rand).Float32":     true,
	"(*math/rand.Rand).Int63":       true,
	"(*math/rand.Rand).Int63n":      true,
	"(*math/rand.Rand).Intn":        true,
	"(*math/rand.Rand).Uint64":      true,
	"(*math/rand.Rand).NormFloat64": true,
	"(*math/rand.Rand).Seed":        true,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorValue reports whether e's static type is (or implements)
// error and e is not the nil literal — the shape of an error being
// constructed or propagated.
func isErrorValue(info *types.Info, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tup, ok := t.(*types.Tuple); ok { // return f() forwarding multiple results
		for i := 0; i < tup.Len(); i++ {
			if types.Implements(tup.At(i).Type(), errorIface) {
				return true
			}
		}
		return false
	}
	return types.Implements(t, errorIface)
}

// coldTerminated reports whether a statement list ends by panicking or
// by returning an error — the shape of an invariant guard or an
// error-construction branch, which the steady-state hot path never
// executes.
func coldTerminated(info *types.Info, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ExprStmt:
		return isPanicCall(info, last.X)
	case *ast.ReturnStmt:
		for _, r := range last.Results {
			if isErrorValue(info, r) {
				return true
			}
		}
	}
	return false
}

func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// generateLocalFacts walks one function body, classifying allocation
// sites, call edges, and map iterations, with cold-region exclusion.
func (db *FactDB) generateLocalFacts(fi *FuncInfo) {
	info := fi.Pkg.Info

	// Pre-pass: mark the roots of cold subtrees — panic calls (their
	// arguments are error formatting), and if/case branches that end
	// in panic or an error return.
	coldRoots := map[ast.Node]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if coldTerminated(info, n.Body.List) {
				coldRoots[n.Body] = true
			}
			if eb, ok := n.Else.(*ast.BlockStmt); ok && coldTerminated(info, eb.List) {
				coldRoots[eb] = true
			}
		case *ast.CaseClause:
			if coldTerminated(info, n.Body) {
				coldRoots[n] = true
			}
		case *ast.CommClause:
			if coldTerminated(info, n.Body) {
				coldRoots[n] = true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isErrorValue(info, r) {
					coldRoots[n] = true
					break
				}
			}
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				coldRoots[n] = true
			}
		}
		return true
	})

	// Main walk with an explicit cold stack (ast.Inspect signals
	// subtree exit with a nil node).
	var stack []bool
	cold := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			cold = len(stack) > 0 && stack[len(stack)-1]
			return true
		}
		cold = cold || coldRoots[n]
		stack = append(stack, cold)

		switch n := n.(type) {
		case *ast.CallExpr:
			db.classifyCall(fi, n, cold)
		case *ast.GoStmt:
			if !cold {
				fi.Allocs = append(fi.Allocs, Site{Pos: n.Pos(), Kind: "go",
					Desc: "goroutine launch allocates a stack"})
			}
		case *ast.FuncLit:
			if !cold && capturesOuter(info, n) {
				fi.Allocs = append(fi.Allocs, Site{Pos: n.Pos(), Kind: "closure",
					Desc: "closure capturing outer variables is heap-allocated"})
			}
		case *ast.CompositeLit:
			if !cold {
				if t := info.Types[n].Type; t != nil {
					switch t.Underlying().(type) {
					case *types.Slice:
						fi.Allocs = append(fi.Allocs, Site{Pos: n.Pos(), Kind: "literal",
							Desc: "slice literal allocates its backing array"})
					case *types.Map:
						fi.Allocs = append(fi.Allocs, Site{Pos: n.Pos(), Kind: "literal",
							Desc: "map literal allocates"})
					}
				}
			}
		case *ast.UnaryExpr:
			if !cold && n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					fi.Allocs = append(fi.Allocs, Site{Pos: n.Pos(), Kind: "literal",
						Desc: "&composite literal escapes to the heap"})
				}
			}
		case *ast.BinaryExpr:
			if !cold && n.Op == token.ADD {
				if t := info.Types[n].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						fi.Allocs = append(fi.Allocs, Site{Pos: n.Pos(), Kind: "concat",
							Desc: "string concatenation allocates"})
					}
				}
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					if !orderInsensitiveBody(info, n.Body.List) {
						fi.MapRanges = append(fi.MapRanges, Site{Pos: n.Pos(), Kind: "maprange",
							Desc: "map iteration order is randomised"})
					}
				}
			}
		case *ast.AssignStmt:
			if !cold {
				db.checkBoxing(fi, assignPairs(info, n))
			}
		case *ast.ReturnStmt:
			if !cold {
				db.checkBoxing(fi, returnPairs(info, fi, n))
			}
		}
		return true
	})
}

// classifyCall resolves one call expression into a graph edge, an
// allocation site, or an external/dynamic record.
func (db *FactDB) classifyCall(fi *FuncInfo, call *ast.CallExpr, cold bool) {
	info := fi.Pkg.Info

	// Type conversions: T(x) parses as a call.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !cold && conversionAllocates(info, call, tv.Type) {
			fi.Allocs = append(fi.Allocs, Site{Pos: call.Pos(), Kind: "convert",
				Desc: "conversion copies into a fresh allocation"})
		}
		return
	}

	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.FuncLit:
		return // immediately-invoked literal: body walked in place
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}

	if b, ok := obj.(*types.Builtin); ok {
		if cold {
			return
		}
		switch b.Name() {
		case "make":
			fi.Allocs = append(fi.Allocs, Site{Pos: call.Pos(), Kind: "make",
				Desc: "make allocates"})
		case "new":
			fi.Allocs = append(fi.Allocs, Site{Pos: call.Pos(), Kind: "new",
				Desc: "new allocates"})
		case "append":
			fi.Allocs = append(fi.Allocs, Site{Pos: call.Pos(), Kind: "append",
				Desc: "append may grow its backing array"})
		}
		return
	}

	fn, ok := obj.(*types.Func)
	if !ok {
		// Call through a function value / struct field / parameter:
		// statically unresolvable.
		if !cold {
			fi.DynCalls = append(fi.DynCalls, Site{Pos: call.Pos(), Kind: "dynamic",
				Desc: "call through a function value"})
		}
		return
	}

	if _, inRepo := db.fns[fn]; inRepo {
		fi.Callees = append(fi.Callees, CalleeEdge{Pos: call.Pos(), Callee: fn, Cold: cold})
		if !cold {
			db.checkBoxing(fi, callArgPairs(info, fn, call))
		}
		return
	}

	// Interface method: expand to every in-repo implementation (CHA).
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		impls := db.implementers(fn)
		if len(impls) > 0 {
			for _, impl := range impls {
				fi.Callees = append(fi.Callees, CalleeEdge{
					Pos: call.Pos(), Callee: impl, Cold: cold,
					Via: "interface " + fn.Name(),
				})
			}
			return
		}
		if !cold {
			fi.DynCalls = append(fi.DynCalls, Site{Pos: call.Pos(), Kind: "dynamic",
				Desc: fmt.Sprintf("interface call %s has no in-repo implementation", fn.Name())})
		}
		return
	}

	// External function with no loadable body: trust the whitelist,
	// assume allocation otherwise.
	if cold {
		return
	}
	if pkg := fn.Pkg(); pkg != nil {
		if allocFreePkgs[pkg.Path()] || allocFreeFuncs[fn.FullName()] {
			return
		}
		fi.ExtCalls = append(fi.ExtCalls, Site{Pos: call.Pos(), Kind: "external",
			Desc: fmt.Sprintf("call into %s (external, assumed to allocate)", fn.FullName())})
	}
}

// conversionAllocates reports whether a conversion to target copies
// data into a fresh heap allocation: string↔[]byte/[]rune and
// conversions producing a slice.
func conversionAllocates(info *types.Info, call *ast.CallExpr, target types.Type) bool {
	if len(call.Args) != 1 {
		return false
	}
	src := info.Types[call.Args[0]].Type
	if src == nil {
		return false
	}
	switch t := target.Underlying().(type) {
	case *types.Slice:
		// []byte(string), []rune(string), and slice-type changes.
		if b, ok := src.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return true
		}
		_ = t
		return false
	case *types.Basic:
		if t.Info()&types.IsString != 0 {
			if _, ok := src.Underlying().(*types.Slice); ok {
				return true // string([]byte) copies
			}
		}
	}
	return false
}

// capturesOuter reports whether a function literal references
// variables declared outside it (a capturing closure, which the
// compiler heap-allocates).
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		// Package-level variables are not captures; a variable whose
		// declaration lies outside the literal's extent is.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// boxPair is a (value, destination type) pair checked for interface
// boxing.
type boxPair struct {
	expr ast.Expr
	dst  types.Type
}

// checkBoxing records interface-boxing allocations: a non-pointer
// concrete value converted to an interface type is heap-boxed.
func (db *FactDB) checkBoxing(fi *FuncInfo, pairs []boxPair) {
	info := fi.Pkg.Info
	for _, p := range pairs {
		if p.dst == nil || !types.IsInterface(p.dst) {
			continue
		}
		tv, ok := info.Types[p.expr]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		src := tv.Type
		if types.IsInterface(src) {
			continue
		}
		switch src.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: fits the interface word, no box
		}
		fi.Allocs = append(fi.Allocs, Site{Pos: p.expr.Pos(), Kind: "boxing",
			Desc: fmt.Sprintf("%s value boxed into %s allocates", src, p.dst)})
	}
}

func assignPairs(info *types.Info, n *ast.AssignStmt) []boxPair {
	if len(n.Lhs) != len(n.Rhs) {
		return nil
	}
	var out []boxPair
	for i := range n.Lhs {
		if lt, ok := info.Types[n.Lhs[i]]; ok && lt.Type != nil {
			out = append(out, boxPair{expr: n.Rhs[i], dst: lt.Type})
		}
	}
	return out
}

func returnPairs(info *types.Info, fi *FuncInfo, n *ast.ReturnStmt) []boxPair {
	sig, ok := fi.Fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(n.Results) {
		return nil
	}
	var out []boxPair
	for i, r := range n.Results {
		out = append(out, boxPair{expr: r, dst: sig.Results().At(i).Type()})
	}
	return out
}

func callArgPairs(info *types.Info, fn *types.Func, call *ast.CallExpr) []boxPair {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	var out []boxPair
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			dst = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				dst = s.Elem()
			}
		}
		if dst != nil {
			out = append(out, boxPair{expr: arg, dst: dst})
		}
	}
	return out
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

// HotSet returns every function reachable from a //seglint:hotpath
// root over non-cold call edges, with a sample chain for messages.
// The traversal is breadth-first from roots in deterministic order,
// so the recorded chain (and therefore finding text) is stable.
func (db *FactDB) HotSet() map[*types.Func]*HotChain {
	if db.hotOnce {
		return db.hot
	}
	db.hotOnce = true
	db.hot = map[*types.Func]*HotChain{}

	var roots []*FuncInfo
	for _, fi := range db.fns {
		if fi.HotPath {
			roots = append(roots, fi)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].Fn.FullName() < roots[j].Fn.FullName()
	})

	var queue []*types.Func
	for _, r := range roots {
		if _, seen := db.hot[r.Fn]; seen {
			continue
		}
		db.hot[r.Fn] = &HotChain{Root: r.Fn}
		queue = append(queue, r.Fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		chain := db.hot[fn]
		fi := db.fns[fn]
		if fi == nil {
			continue
		}
		// Deterministic edge order: Callees are appended in source
		// order within a file, and files are parsed in sorted order.
		for _, e := range fi.Callees {
			if e.Cold {
				continue
			}
			if _, seen := db.hot[e.Callee]; seen {
				continue
			}
			next := &HotChain{Root: chain.Root}
			next.Path = append(append([]string{}, chain.Path...), e.Callee.Name())
			db.hot[e.Callee] = next
			queue = append(queue, e.Callee)
		}
	}
	return db.hot
}

// MapRangeReach reports whether fn transitively reaches an
// order-sensitive map iteration (through any call edge, cold ones
// included — error paths feed committed output too), returning the
// site, the owning function, and the call path.
func (db *FactDB) MapRangeReach(fn *types.Func) (Site, *types.Func, []string, bool) {
	if m := db.mapReachOf(fn, map[*types.Func]bool{}); m != nil && m.ok {
		return m.site, m.fn, m.path, true
	}
	return Site{}, nil, nil, false
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
		m.site = fi.MapRanges[0]
		m.fn = fn
		db.mapMemo[fn] = m
		return m
	}
	for _, e := range fi.Callees {
		sub := db.mapReachOf(e.Callee, visiting)
		if sub != nil && sub.ok {
			m.ok = true
			m.site = sub.site
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
	hot := db.HotSet()
	for _, fi := range fns {
		var facts []string
		if fi.HotPath {
			facts = append(facts, "hotpath")
		}
		if c, ok := hot[fi.Fn]; ok && !fi.HotPath {
			facts = append(facts, fmt.Sprintf("hot(from %s)", c.Root.Name()))
		}
		if len(fi.Allocs) > 0 {
			facts = append(facts, fmt.Sprintf("allocates(%d)", len(fi.Allocs)))
		}
		if len(fi.ExtCalls) > 0 {
			facts = append(facts, fmt.Sprintf("ext-allocs(%d)", len(fi.ExtCalls)))
		}
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
