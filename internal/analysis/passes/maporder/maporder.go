// Package maporder defines an Analyzer that keeps order-sensitive map
// iteration out of the deterministic packages. Go randomises map
// iteration order per range statement, so any computation in des,
// collective, horovod, train, perfsim, or faultinject whose result
// depends on that order breaks the restart-equivalence and chaos
// goldens the paper's numbers rest on.
//
// Not every map range is flagged: a loop body that only collects keys
// or values into a slice (for a later sort), deletes entries, or folds
// an integer/boolean aggregate (counters, bitmask unions) is
// order-insensitive and allowed — that is the standard
// collect-then-sort idiom. Anything else is flagged, including float
// accumulation: IEEE addition is non-associative, so summing map
// values in random order is not bit-stable.
//
// The check is transitive through the whole-repo fact database: a call
// from a deterministic package into a helper (in any package) that
// ranges over a map order-sensitively is reported at the call site —
// unless the helper itself lives in a deterministic package, where the
// range is already reported at its source.
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"segscale/internal/analysis"
)

// deterministic names the package basenames whose output feeds
// committed goldens and must be bit-identical across runs.
var deterministic = map[string]bool{
	"des":         true,
	"collective":  true,
	"horovod":     true,
	"train":       true,
	"perfsim":     true,
	"faultinject": true,
}

// Analyzer flags order-sensitive map iteration reachable from the
// deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "deterministic packages (des, collective, horovod, train, perfsim, faultinject) must not " +
		"iterate maps order-sensitively, directly or through callees; collect-and-sort, delete, " +
		"and integer/bool folds are allowed",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !deterministic[pass.PkgBase()] {
		return nil
	}
	db := pass.Facts
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := db.Info(fn)
			if fi == nil {
				continue
			}
			for _, pos := range fi.MapRanges {
				pass.Reportf(pos, "order-sensitive map iteration in deterministic package %s; "+
					"collect and sort the keys instead", pass.PkgBase())
			}
			for _, e := range fi.Callees {
				callee := db.Info(e.Callee)
				if callee == nil {
					continue
				}
				if deterministic[pkgBaseOf(callee.Pkg.Path)] {
					continue // the callee's own package reports it
				}
				if owner, path, ok := db.MapRangeReach(e.Callee); ok {
					if ofi := db.Info(owner); ofi != nil && deterministic[pkgBaseOf(ofi.Pkg.Path)] {
						continue // the range is reported at its source
					}
					chain := e.Callee.Name()
					if len(path) > 0 {
						chain += " → " + strings.Join(path, " → ")
					}
					pass.Reportf(e.Pos, "call from deterministic package %s reaches an order-sensitive "+
						"map iteration in %s (via %s)", pass.PkgBase(), owner.FullName(), chain)
				}
			}
		}
	}
	return nil
}

func pkgBaseOf(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
