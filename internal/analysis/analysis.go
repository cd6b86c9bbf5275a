// Package analysis is a self-contained reimplementation of the
// golang.org/x/tools/go/analysis programming model, built only on the
// standard library so the repository needs no external module to lint
// itself. It exists because the paper's reproduction is only credible
// while every simulated component stays deterministic: the custom
// passes under internal/analysis/passes guard the DES virtual clock,
// seeded RNG discipline, unit-suffixed quantity names, and error-based
// APIs that the perf results depend on.
//
// The model mirrors x/tools deliberately — an Analyzer owns a Run
// function over a Pass, the Pass reports Diagnostics — so the passes
// can migrate to the upstream framework wholesale if the dependency
// ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in findings, suppression comments, and
	// the seglint -list output. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description shown by seglint -list.
	Doc string
	// Run executes the pass over one package and reports findings via
	// pass.Report. The returned error aborts the whole lint run and is
	// reserved for internal failures, not findings.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	// Path is the package's import path ("segscale/internal/des"), or
	// its bare directory name for analysistest fixtures ("des").
	Path string
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files holds the package's non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report emits one diagnostic. Suppression comments are applied by the
// runner, not here.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf is Report with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PkgNameOf resolves an identifier to the import path of the package
// it names, or "" when the identifier is not a package name. This is
// the sound way to recognise `time.Now` — it survives import renames
// and local shadowing, unlike matching the literal text "time".
func (p *Pass) PkgNameOf(id *ast.Ident) string {
	if obj, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// IsBuiltin reports whether the identifier resolves to the universe
// builtin of that name (e.g. the real panic, not a shadowing func).
func (p *Pass) IsBuiltin(id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := p.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// PkgBase returns the last path element of the pass's package path —
// the name passes use to scope themselves to simulator packages.
func (p *Pass) PkgBase() string {
	path := p.Path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
