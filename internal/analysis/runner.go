package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
)

// Finding is one reported, unsuppressed diagnostic in a form ready for
// text or JSON output.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // relative to the module root when possible
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the finding the way go vet does.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// SuppressHygieneAnalyzer is the analyzer name attached to findings
// about the suppression comments themselves (missing reasons). These
// findings are emitted by the runner, not a pass, and are deliberately
// not suppressible — a suppression cannot vouch for itself.
const SuppressHygieneAnalyzer = "suppressreason"

// Options configures a lint run.
type Options struct {
	// RelTo, when non-empty, makes finding file paths relative to that
	// directory.
	RelTo string
	// CheckSuppressions additionally reports every suppression
	// directive whose reason is empty, under SuppressHygieneAnalyzer.
	CheckSuppressions bool
}

// Run executes every analyzer over every package, applies suppression
// comments, and returns the surviving findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Finding, error) {
	var out []Finding
	rebase := func(file string) string {
		if opts.RelTo == "" {
			return file
		}
		if rel, err := filepath.Rel(opts.RelTo, file); err == nil {
			return rel
		}
		return file
	}
	for _, pkg := range pkgs {
		sup := newSuppressions(pkg)
		if opts.CheckSuppressions {
			for _, d := range sup.Directives() {
				if d.Reason != "" {
					continue
				}
				out = append(out, Finding{
					Analyzer: SuppressHygieneAnalyzer,
					File:     rebase(d.Pos.Filename),
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Message:  fmt.Sprintf("seglint:%s directive has no reason; justify the suppression", d.Kind),
				})
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Path:      pkg.Path,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if sup.suppressed(name, pos) {
					return
				}
				out = append(out, Finding{
					Analyzer: name,
					File:     rebase(pos.Filename),
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	SortFindings(out)
	return out, nil
}

// SortFindings orders findings by (file, line, col, analyzer, message)
// — a total order, so output is byte-stable regardless of package load
// or analyzer registration order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
