// Package maporder defines an Analyzer that keeps order-sensitive map
// iteration out of the code the deterministic packages run. Go
// randomises map iteration order per range statement, so any
// computation in des, collective, horovod, train, perfsim, or
// faultinject whose result depends on that order breaks the
// restart-equivalence and chaos goldens the paper's numbers rest on.
//
// Not every map range is flagged: a loop body that only collects keys
// or values into a slice (for a later sort), deletes entries, or folds
// an integer/boolean aggregate (counters, bitmask unions) is
// order-insensitive and allowed — that is the standard
// collect-then-sort idiom. Anything else is flagged, including float
// accumulation: IEEE addition is non-associative, so summing map
// values in random order is not bit-stable.
//
// The pass checks each package on its own syntax; its reach comes from
// its scope. The scope is the six deterministic packages plus every
// module package they transitively import, written out as one list
// (closure below) that a tier-1 test keeps equal to the import
// closure. A helper the deterministic packages call is therefore
// checked where it is defined, whichever package holds it. The one
// kind of callee outside the closure is an implementation of an
// interface the deterministic packages call into without importing it
// — observers such as obs.PromFlusher.ObserveStep behind
// train.Config.StepObs. Observers must not feed back into the run:
// train's TestObsPlaneDoesNotChangeResults reruns with the metrics
// flusher and the monitor attached, and the trajectory fingerprint
// reruns every cell with the health plane attached, and both must
// match the bare run bit for bit.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"segscale/internal/analysis"
)

// closure names, by basename, the deterministic packages (des,
// collective, horovod, train, perfsim, faultinject) and every module
// package they transitively import: everything whose output feeds
// committed goldens. TestClosureMatchesImports fails when an import
// adds a package this list lacks.
var closure = map[string]bool{
	"checkpoint":    true,
	"collective":    true,
	"deeplab":       true,
	"des":           true,
	"devsim":        true,
	"faultinject":   true,
	"fp16":          true,
	"horovod":       true,
	"iosim":         true,
	"metrics":       true,
	"model":         true,
	"modelhealth":   true,
	"mpiprofile":    true,
	"netmodel":      true,
	"nn":            true,
	"perfsim":       true,
	"segdata":       true,
	"telemetry":     true,
	"tensor":        true,
	"timeline":      true,
	"topology":      true,
	"traceanalysis": true,
	"train":         true,
	"transport":     true,
}

// Analyzer flags order-sensitive map iteration in the deterministic
// packages' import closure.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "the deterministic packages (des, collective, horovod, train, perfsim, faultinject) and " +
		"every package they import must not iterate maps order-sensitively; collect-and-sort, " +
		"delete, and integer/bool folds are allowed",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !closure[pass.PkgBase()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypesInfo.Types[rs.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !orderInsensitiveBody(pass.TypesInfo, rs.Body.List) {
					pass.Reportf(rs.Pos(), "order-sensitive map iteration in %s, which the deterministic "+
						"packages run; collect and sort the keys instead", pass.PkgBase())
				}
			}
			return true
		})
	}
	return nil
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
