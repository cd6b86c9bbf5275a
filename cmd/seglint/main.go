// Command seglint is the repository's multichecker: it runs every
// custom analysis pass that guards simulator determinism and API
// hygiene over the packages named on the command line.
//
// Usage:
//
//	go run ./cmd/seglint ./...                # lint the whole module
//	go run ./cmd/seglint -json ./...          # machine-readable findings
//	go run ./cmd/seglint -list                # describe the passes
//	go run ./cmd/seglint -suppressions ./...  # also fail reason-less suppressions
//	go run ./cmd/seglint -prom m.prom         # validate an exported metrics file
//
// -prom checks a Prometheus text-format export (what -prom flags on
// the binaries and the /metrics endpoint emit) against the same
// naming convention the metricname pass enforces at registration
// sites — closing the loop from source to scrape.
//
// -suppressions additionally reports every //seglint:ignore /
// file-ignore / package-ignore directive that carries no reason, as
// unsuppressible "suppressreason" findings — CI runs this mode so
// every suppression in the tree stays justified.
//
// Exit status: 0 when clean, 1 when findings remain, 2 on internal
// error. Findings can be suppressed in source with recorded
// justifications — see docs/LINTING.md for the syntax.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"segscale/internal/analysis"
	"segscale/internal/analysis/passes/maporder"
	"segscale/internal/analysis/passes/metricname"
	"segscale/internal/analysis/passes/nopanic"
	"segscale/internal/analysis/passes/nowallclock"
	"segscale/internal/analysis/passes/seededrand"
	"segscale/internal/analysis/passes/unitsuffix"
	"segscale/internal/telemetry"
)

// analyzers is the multichecker's pass registry; new passes register
// here and in docs/LINTING.md.
var analyzers = []*analysis.Analyzer{
	nowallclock.Analyzer,
	seededrand.Analyzer,
	unitsuffix.Analyzer,
	nopanic.Analyzer,
	metricname.Analyzer,
	maporder.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	checkSup := flag.Bool("suppressions", false, "also fail //seglint:ignore directives that carry no reason")
	promFile := flag.String("prom", "", "validate a Prometheus text-format metrics file instead of linting packages")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seglint [-json] [-list] [-suppressions] [-prom file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	var findings []analysis.Finding
	var err error
	if *promFile != "" {
		findings, err = lintProm(*promFile)
	} else {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		findings, err = lint(patterns, *checkSup)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seglint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "seglint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "seglint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// lintProm validates every metric name in a Prometheus text-format
// file against the registration-site convention. Histogram series
// suffixes (_bucket, _sum, _count) are stripped first: they belong to
// the exposition format, not the metric's registered name.
func lintProm(path string) ([]analysis.Finding, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var findings []analysis.Finding
	seen := map[string]bool{}
	report := func(line int, name, msg string) {
		if seen[name] {
			return // one finding per metric, not per sample
		}
		seen[name] = true
		findings = append(findings, analysis.Finding{
			Analyzer: "metricname", File: path, Line: line, Col: 1,
			Message: fmt.Sprintf("metric %q %s", name, msg),
		})
	}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		name := promSampleName(sc.Text())
		if name == "" {
			continue
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !telemetry.ValidMetricName(base) {
			report(line, name, fmt.Sprintf(
				"violates the naming convention: snake_case with a unit suffix from %v",
				telemetry.MetricSuffixes))
		}
	}
	// Same total order as the source-lint path, so -json/text output
	// is byte-stable however the input was produced.
	analysis.SortFindings(findings)
	return findings, sc.Err()
}

// promSampleName extracts the metric name from one exposition line:
// the token before '{', ' ', or '\t' on sample lines, or the second
// token of "# TYPE"/"# HELP" comments ("" for anything else).
func promSampleName(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if strings.HasPrefix(s, "#") {
		fields := strings.Fields(s)
		if len(fields) >= 3 && (fields[1] == "TYPE" || fields[1] == "HELP") {
			return fields[2]
		}
		return ""
	}
	if i := strings.IndexAny(s, "{ \t"); i > 0 {
		return s[:i]
	}
	return ""
}

func lint(patterns []string, checkSup bool) ([]analysis.Finding, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		cwd = root
	}
	paths, err := loader.Expand(rebase(patterns, root, cwd))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return analysis.Run(pkgs, analyzers, analysis.Options{
		RelTo:             cwd,
		CheckSuppressions: checkSup,
	})
}

// rebase makes relative patterns cwd-relative, matching the go tool:
// running seglint from a subdirectory with "." or "./..." lints that
// directory's subtree, not the module root's.
func rebase(patterns []string, root, cwd string) []string {
	rel, err := filepath.Rel(root, cwd)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return patterns
	}
	out := make([]string, len(patterns))
	for i, p := range patterns {
		switch {
		case p == "." || p == "./":
			out[i] = "./" + filepath.ToSlash(rel)
		default:
			if rest, ok := strings.CutPrefix(p, "./"); ok {
				out[i] = "./" + filepath.ToSlash(rel) + "/" + rest
			} else {
				out[i] = p
			}
		}
	}
	return out
}

// findModuleRoot walks upward from the working directory to the
// nearest go.mod, so seglint works from any subdirectory.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
