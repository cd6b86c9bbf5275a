package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, or bare name for fixture packages
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module from
// source. Standard-library imports are resolved through the go/types
// source importer, module-internal imports recursively through the
// loader itself, so no compiled export data (and no network) is ever
// needed. Test files are excluded: the passes guard shipped simulator
// code, and tests are free to use wall clocks and ad-hoc randomness.
type Loader struct {
	Root string // module root directory (contains go.mod), or fixture root
	Mod  string // module path from go.mod; "" for fixture roots

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // keyed by import path
	ing  map[string]bool     // import-cycle guard
}

// NewLoader returns a loader for the module rooted at dir, reading the
// module path from its go.mod.
func NewLoader(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", dir)
	}
	return newLoader(dir, mod), nil
}

// NewFixtureLoader returns a loader rooted at an analysistest
// testdata/src directory, where packages are named by bare directory
// ("des", "perfsim") rather than full module paths.
func NewFixtureLoader(root string) *Loader { return newLoader(root, "") }

func newLoader(root, mod string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root: root,
		Mod:  mod,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*Package{},
		ing:  map[string]bool{},
	}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// internalPath reports whether an import path belongs to this loader's
// tree (module-internal, or any fixture package when Mod is empty).
func (l *Loader) internalPath(path string) bool {
	if l.Mod == "" {
		// Fixture imports have no dots (stdlib style is ruled out by
		// the stdlib importer being tried only for non-internal paths,
		// so restrict to paths that exist under the fixture root).
		_, err := os.Stat(filepath.Join(l.Root, filepath.FromSlash(path)))
		return err == nil
	}
	return path == l.Mod || strings.HasPrefix(path, l.Mod+"/")
}

func (l *Loader) dirFor(path string) string {
	if l.Mod == "" {
		return filepath.Join(l.Root, filepath.FromSlash(path))
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Mod), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// Import implements types.Importer over both module-internal packages
// and the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if !l.internalPath(path) {
		return l.std.Import(path)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// Load parses and type-checks the package with the given import path,
// returning a cached result on repeat calls.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.ing[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.ing[path] = true
	defer delete(l.ing, path)

	dir := l.dirFor(path)
	names, err := GoFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %q: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: %q: no non-test Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %q: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Expand resolves package patterns relative to the module root into
// import paths. Supported forms: "./...", "./dir/...", "./dir", and
// full import paths. Directories named testdata and hidden directories
// are skipped, matching the go tool's convention, so analyzer fixtures
// are never linted as real code.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(rel string) error {
		names, err := GoFilesIn(filepath.Join(l.Root, rel))
		if err != nil || len(names) == 0 {
			return nil // not a package dir; pattern walks tolerate this
		}
		path := l.Mod
		if rel != "." {
			path = l.Mod + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		// A trailing slash ("./internal/netsim/", shell completion
		// style) would otherwise leak into the import path and break
		// analyzers that dispatch on the package base name.
		if pat != "/" && pat != "./" {
			pat = strings.TrimSuffix(pat, "/")
		}
		if pat == "./" {
			pat = "."
		}
		switch {
		case strings.HasSuffix(pat, "..."):
			base := strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, "/")
			base = strings.TrimPrefix(base, "./")
			if base == "" {
				base = "."
			}
			root := filepath.Join(l.Root, filepath.FromSlash(base))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				rel, err := filepath.Rel(l.Root, p)
				if err != nil {
					return err
				}
				return add(rel)
			})
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" || pat == "." {
				rel = "."
			}
			if err := add(rel); err != nil {
				return nil, err
			}
		default:
			if !seen[pat] {
				seen[pat] = true
				out = append(out, pat)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// GoFilesIn lists the non-test .go files of a directory that build for
// the host's GOOS/GOARCH (file-name suffixes and //go:build lines, as
// the go tool selects them), sorted.
func GoFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
