package maporder

import (
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"segscale/internal/analysis"
	"segscale/internal/analysis/analysistest"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "perfsim", "netmodel", "detutil")
}

// TestClosureMatchesImports keeps the pass's scope equal to the
// deterministic packages' import closure: a new import of a module
// package the list lacks would leave that package's map ranges
// unchecked.
func TestClosureMatchesImports(t *testing.T) {
	root, err := filepath.Abs("../../../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	reached := map[string]bool{} // by basename, as the pass scopes itself
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if !strings.HasPrefix(p.Path(), l.Mod+"/") || seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		reached[path.Base(p.Path())] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, base := range []string{"des", "collective", "horovod", "train", "perfsim", "faultinject"} {
		pkg, err := l.Load(l.Mod + "/internal/" + base)
		if err != nil {
			t.Fatal(err)
		}
		walk(pkg.Types)
	}
	var missing, stale []string
	for base := range reached {
		if !closure[base] {
			missing = append(missing, base)
		}
	}
	for base := range closure {
		if !reached[base] {
			stale = append(stale, base)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("the deterministic packages import %v, which maporder's closure list lacks", missing)
	}
	if len(stale) > 0 {
		t.Errorf("maporder's closure list names %v, which no deterministic package imports", stale)
	}
}
