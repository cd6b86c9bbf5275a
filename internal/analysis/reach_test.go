package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"segscale/internal/analysis"
)

// reachPkg is one directory of non-test Go files, parsed without type
// information.
type reachPkg struct {
	path  string // import path
	name  string // package clause name
	files []*ast.File
}

// TestEveryFunctionHasANonTestCaller fails on any package-level
// function under internal/ or pkg/ that no non-test code in the module
// refers to: code only tests reach is deleted, or moved into a
// _test.go file when a test uses it as an oracle. A reference is a
// bare identifier in the declaring package or pkg.Name through an
// import of it, anywhere outside the function's own body; bench/,
// cmd/ and examples/ count as callers. Methods are out of scope
// (interfaces make a name-based check unsound), and so are test-support
// packages, whose non-test files import "testing". Names only, no
// type-checking: a shadowing local keeps a function alive, never the
// reverse.
func TestEveryFunctionHasANonTestCaller(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	mod := l.Mod
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, root, mod)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{} // import path -> package name
	for _, p := range pkgs {
		names[p.path] = p.name
	}

	type key struct{ pkg, name string }
	used := map[key]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{} // local name -> import path
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				local, ok := names[path]
				if !ok {
					continue
				}
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = path
			}
			for _, d := range f.Decls {
				// A function's own name and body do not keep it alive.
				var decl *ast.Ident
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					decl = fd.Name
					if fd.Recv == nil {
						self = fd.Name.Name
					}
				}
				var visit func(ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if id, ok := n.X.(*ast.Ident); ok {
							if path, ok := imports[id.Name]; ok {
								used[key{path, n.Sel.Name}] = true
								return false
							}
						}
						// x.Name on a value: only x can name a function.
						ast.Inspect(n.X, visit)
						return false
					case *ast.Ident:
						if n != decl && n.Name != self {
							used[key{p.path, n.Name}] = true
						}
					}
					return true
				}
				ast.Inspect(d, visit)
			}
		}
	}

	var stray []string
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.path, mod), "/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "pkg/") {
			continue
		}
		if importsTesting(p) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				if !used[key{p.path, fd.Name.Name}] {
					pos := fset.Position(fd.Pos())
					file, _ := filepath.Rel(root, pos.Filename)
					stray = append(stray, file+":"+strconv.Itoa(pos.Line)+" "+fd.Name.Name)
				}
			}
		}
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Errorf("%s: no non-test caller", s)
	}
}

func importsTesting(p reachPkg) bool {
	for _, f := range p.files {
		for _, is := range f.Imports {
			if is.Path.Value == `"testing"` {
				return true
			}
		}
	}
	return false
}

// parseModule parses every non-test .go file of the module, one
// reachPkg per directory, skipping testdata and hidden directories.
func parseModule(fset *token.FileSet, root, mod string) ([]reachPkg, error) {
	byDir := map[string]*reachPkg{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		p := byDir[dir]
		if p == nil {
			rel, _ := filepath.Rel(root, dir)
			ip := mod
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			p = &reachPkg{path: ip, name: f.Name.Name}
			byDir[dir] = p
			dirs = append(dirs, dir)
		}
		p.files = append(p.files, f)
		return nil
	})
	var out []reachPkg
	for _, d := range dirs {
		out = append(out, *byDir[d])
	}
	return out, err
}
