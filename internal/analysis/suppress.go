package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// Suppression-comment syntax (documented in docs/LINTING.md):
//
//	//seglint:ignore <analyzer>[,<analyzer>...] [reason]
//	//seglint:file-ignore <analyzer>[,...] [reason]
//	//seglint:package-ignore <analyzer>[,...] [reason]
//
// An ignore comment suppresses findings on its own line (trailing
// comment) and on the line directly below it (comment-above style).
// file-ignore covers its whole file, package-ignore the whole package.
// The analyzer list may be "all". Reasons are free text; write one —
// the runner's CheckSuppressions mode (seglint -suppressions, enforced
// in CI) fails any directive whose reason is empty.

const suppressPrefix = "//seglint:"

// Directive is one parsed seglint suppression comment, exposed so the
// runner can enforce reason hygiene and tests can assert on parsing.
type Directive struct {
	Kind      string // "ignore", "file-ignore", "package-ignore"
	Analyzers []string
	Reason    string
	Pos       token.Position
}

// suppressions indexes a package's seglint ignore comments.
type suppressions struct {
	pkg        map[string]bool            // analyzer -> whole package
	files      map[string]map[string]bool // filename -> analyzer set
	lines      map[string]map[int]map[string]bool
	directives []Directive
}

func newSuppressions(p *Package) *suppressions {
	s := &suppressions{
		pkg:   map[string]bool{},
		files: map[string]map[string]bool{},
		lines: map[string]map[int]map[string]bool{},
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, suppressPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue
				}
				kind := fields[0]
				if kind != "ignore" && kind != "file-ignore" && kind != "package-ignore" {
					continue // other //seglint: comments are not suppressions
				}
				names := strings.Split(fields[1], ",")
				pos := p.Fset.Position(c.Pos())
				d := Directive{
					Kind:   kind,
					Reason: strings.TrimSpace(strings.Join(fields[2:], " ")),
					Pos:    pos,
				}
				for _, name := range names {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					d.Analyzers = append(d.Analyzers, name)
					switch kind {
					case "ignore":
						byLine := s.lines[pos.Filename]
						if byLine == nil {
							byLine = map[int]map[string]bool{}
							s.lines[pos.Filename] = byLine
						}
						for _, ln := range []int{pos.Line, pos.Line + 1} {
							if byLine[ln] == nil {
								byLine[ln] = map[string]bool{}
							}
							byLine[ln][name] = true
						}
					case "file-ignore":
						if s.files[pos.Filename] == nil {
							s.files[pos.Filename] = map[string]bool{}
						}
						s.files[pos.Filename][name] = true
					case "package-ignore":
						s.pkg[name] = true
					}
				}
				if len(d.Analyzers) > 0 {
					s.directives = append(s.directives, d)
				}
			}
		}
	}
	sort.Slice(s.directives, func(i, j int) bool {
		a, b := s.directives[i].Pos, s.directives[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return s
}

// Directives returns the package's parsed suppression comments in
// position order.
func (s *suppressions) Directives() []Directive { return s.directives }

// suppressed reports whether a finding by the named analyzer at pos is
// covered by an ignore comment.
func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	match := func(set map[string]bool) bool {
		return set != nil && (set[analyzer] || set["all"])
	}
	if match(s.pkg) {
		return true
	}
	if match(s.files[pos.Filename]) {
		return true
	}
	if byLine := s.lines[pos.Filename]; byLine != nil {
		return match(byLine[pos.Line])
	}
	return false
}
