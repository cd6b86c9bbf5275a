package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"segscale/internal/analysis"
)

// mkFlagger builds a toy analyzer under the given name that flags
// every Flag* function declaration — two instances let the tests
// exercise multi-analyzer ignore lists.
func mkFlagger(name string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: name,
		Doc:  "test analyzer flagging Flag* function declarations",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Flag") {
						pass.Reportf(fd.Pos(), "flagged function %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

// parsePkg builds an analysis.Package from in-memory source. The toy
// analyzers are purely syntactic, so no type checking is needed.
func parsePkg(t *testing.T, name, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Package{Path: name, Fset: fset, Files: []*ast.File{f}}
}

// TestIgnoreMultiAnalyzerList covers one ignore line naming several
// analyzers: both named passes are silenced, unnamed ones are not.
func TestIgnoreMultiAnalyzerList(t *testing.T) {
	src := `package p

//seglint:ignore alpha,beta both toy passes fire here by design
func FlagBoth() {}

//seglint:ignore alpha only alpha is justified
func FlagAlphaOnly() {}

func FlagNeither() {}
`
	pkg := parsePkg(t, "multi", src)
	alpha, beta := mkFlagger("alpha"), mkFlagger("beta")
	fs, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{alpha, beta}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		got = append(got, f.Analyzer+":"+fieldAfter(f.Message, "function "))
	}
	// Position-sorted: FlagAlphaOnly (earlier line) precedes
	// FlagNeither, where both analyzers fire in name order.
	want := []string{"beta:FlagAlphaOnly", "alpha:FlagNeither", "beta:FlagNeither"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("findings = %v, want %v", got, want)
	}
}

func fieldAfter(s, sep string) string {
	if i := strings.Index(s, sep); i >= 0 {
		return s[i+len(sep):]
	}
	return s
}

// TestIgnoreTrailingAndAboveForms covers the two placement styles:
// a trailing same-line comment and a comment on the line above both
// suppress, a comment two lines above does not.
func TestIgnoreTrailingAndAboveForms(t *testing.T) {
	src := `package p

func FlagTrailing() {} //seglint:ignore alpha trailing form

//seglint:ignore alpha line-above form
func FlagAbove() {}

//seglint:ignore alpha too far away

func FlagGap() {}
`
	pkg := parsePkg(t, "forms", src)
	fs, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{mkFlagger("alpha")}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "FlagGap") {
		t.Errorf("findings = %v, want exactly FlagGap", fs)
	}
}

// TestCheckSuppressionsFlagsMissingReasons covers the -suppressions
// hygiene mode: every directive kind with an empty reason is reported
// under the unsuppressible suppressreason analyzer, and a justified
// directive is not.
func TestCheckSuppressionsFlagsMissingReasons(t *testing.T) {
	src := `package p

//seglint:ignore alpha
func FlagBare() {}

//seglint:ignore alpha a recorded justification
func FlagJustified() {}

func helper() {} //seglint:file-ignore beta
`
	pkg := parsePkg(t, "hygiene", src)
	fs, err := analysis.Run([]*analysis.Package{pkg}, nil, analysis.Options{CheckSuppressions: true})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range fs {
		if f.Analyzer != analysis.SuppressHygieneAnalyzer {
			t.Errorf("unexpected analyzer %q in suppression-hygiene run", f.Analyzer)
		}
		lines = append(lines, f.Line)
	}
	if fmt.Sprint(lines) != fmt.Sprint([]int{3, 9}) {
		t.Errorf("reason-less directives at lines %v, want [3 9]", lines)
	}
}

// TestSuppressReasonIsUnsuppressible: a suppression cannot vouch for
// itself — even a package-wide ignore-all must not hide the hygiene
// findings about reason-less directives.
func TestSuppressReasonIsUnsuppressible(t *testing.T) {
	src := `package p

//seglint:package-ignore all blanket ignore for this fixture

//seglint:ignore alpha
func FlagStill() {}
`
	pkg := parsePkg(t, "unsup", src)
	fs, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{mkFlagger("alpha")}, analysis.Options{CheckSuppressions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Analyzer != analysis.SuppressHygieneAnalyzer || fs[0].Line != 5 {
		t.Errorf("findings = %v, want one suppressreason at line 5", fs)
	}
}

// TestOtherDirectiveIsNotASuppression: a //seglint: comment of any
// kind but ignore, file-ignore or package-ignore must neither silence
// findings on the function it annotates nor trip the reason-hygiene
// check.
func TestOtherDirectiveIsNotASuppression(t *testing.T) {
	src := `package p

//seglint:note toy annotation
func FlagNoted() {}
`
	pkg := parsePkg(t, "noted", src)
	fs, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{mkFlagger("alpha")}, analysis.Options{CheckSuppressions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Analyzer != "alpha" || !strings.Contains(fs[0].Message, "FlagNoted") {
		t.Errorf("findings = %v, want exactly alpha on FlagNoted", fs)
	}
}
