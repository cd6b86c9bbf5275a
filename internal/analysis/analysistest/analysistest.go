// Package analysistest runs an analyzer over fixture packages and
// checks its findings against expectations written in the fixtures —
// the same contract as golang.org/x/tools/go/analysis/analysistest,
// rebuilt on the standard library.
//
// Fixtures live under <testdata>/src/<pkg>/ and carry expectations as
// trailing comments:
//
//	t := time.Now() // want "wall-clock"
//
// Each quoted string is a regexp that must match the message of
// exactly one finding on that line; findings without a matching want,
// and wants without a matching finding, fail the test. Suppression
// comments are honoured, so fixtures can (and should) also prove that
// //seglint:ignore works for their analyzer.
package analysistest

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"segscale/internal/analysis"
)

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the named fixture packages from testdata/src through one
// shared loader, applies the analyzer to each of them, and reports any
// mismatch between findings and // want expectations as test errors.
// Fixtures may import one another; only the named packages are
// analysed.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.NewFixtureLoader(testdata + "/src")
	var targets []*analysis.Package
	for _, name := range pkgs {
		pkg, err := loader.Load(name)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", name, err)
		}
		targets = append(targets, pkg)
	}
	findings, err := analysis.Run(targets, []*analysis.Analyzer{a}, analysis.Options{})
	if err != nil {
		t.Fatalf("running %s on fixtures %v: %v", a.Name, pkgs, err)
	}
	for _, pkg := range targets {
		var own []analysis.Finding
		for _, fd := range findings {
			if strings.HasPrefix(fd.File, pkg.Dir+"/") {
				own = append(own, fd)
			}
		}
		checkPackage(t, pkg, own)
	}
}

func checkPackage(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	// file -> line -> expectations, gathered from // want comments.
	wants := map[string]map[int][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				collectWants(t, pkg, c, wants)
			}
		}
	}

	for _, fd := range findings {
		exps := wants[fd.File][fd.Line]
		ok := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(fd.Message) {
				e.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected finding: %s", pkg.Path, fd)
		}
	}
	for file, byLine := range wants {
		for line, exps := range byLine {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none", file, line, e.re)
				}
			}
		}
	}
}

func collectWants(t *testing.T, pkg *analysis.Package, c *ast.Comment, wants map[string]map[int][]*expectation) {
	t.Helper()
	text, ok := strings.CutPrefix(c.Text, "// want ")
	if !ok {
		return
	}
	pos := pkg.Fset.Position(c.Pos())
	for _, m := range wantRE.FindAllString(text, -1) {
		lit, err := strconv.Unquote(m)
		if err != nil {
			t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, m, err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
		}
		if wants[pos.Filename] == nil {
			wants[pos.Filename] = map[int][]*expectation{}
		}
		wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &expectation{re: re})
	}
}
