// Command seg-compare is the run-comparison regression gate: it diffs
// two runs' artifacts — step-time attribution ledgers (summit-sim
// -attr-out, dlv3-train -attr-out, trace-stats -attr-out), run
// manifests from results/runs/, or training-health ledgers (dlv3-train
// -health-out, a /debug/health scrape's backing plane) — and exits
// nonzero when the candidate regresses against the baseline. The test
// is deterministic: given the same two files it always renders the
// same report and verdict, so it can gate CI.
//
// Usage:
//
//	seg-compare [-rel 0.05] [-z 3] [-min-abs 1e-4] baseline.json candidate.json
//	seg-compare -validate ledger.json
//
// For attribution ledgers, every bucket's per-row samples are compared
// with a two-sample z-test on top of a relative-delta threshold: a
// bucket regresses only when it got slower by more than -rel, by more
// than -min-abs seconds, and the shift clears -z pooled standard
// errors — noise-sized wobbles pass, straggler-sized shifts fail. The
// report also names each run's most-blamed rank, so a failing diff
// points at who to go look at.
//
// For health ledgers the gate works on gradient-health distributions
// instead of time: per-run grad_l2 / upd_ratio / dead_frac samples are
// z-tested the same way (two-sided — a fp16 or hierarchical-allreduce
// candidate must neither blow up nor collapse gradients relative to
// the fp32/flat baseline), and any increase in non-finite elements or
// sentinel trips is a hard regression regardless of thresholds.
//
// -validate checks a single ledger's structural invariants — schema,
// rank bounds, non-negative buckets summing to each row's step wall
// (attribution) or (step, rank, inc, kind, layer) row order and value
// sanity (health) — and exits nonzero on violation: the smoke tests'
// JSON-schema gate.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"segscale/internal/modelhealth"
	"segscale/internal/traceanalysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seg-compare: ")
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(code)
}

// run is the whole tool behind a testable seam. The int is the process
// exit code: 0 clean, 1 regression (or failed validation), and any
// returned error means usage or I/O trouble.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("seg-compare", flag.ContinueOnError)
	validate := fs.Bool("validate", false, "validate a single ledger file instead of diffing two")
	rel := fs.Float64("rel", 0.05, "relative worsening needed to flag a bucket")
	zThresh := fs.Float64("z", 3, "z-score the worsening must clear to count as significant")
	minAbs := fs.Float64("min-abs", 1e-4, "ignore bucket deltas smaller than this many seconds")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *validate {
		if fs.NArg() != 1 {
			return 0, fmt.Errorf("usage: seg-compare -validate <ledger.json>")
		}
		return runValidate(fs.Arg(0), stdout)
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("usage: seg-compare [flags] <baseline.json> <candidate.json>")
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	cand, err := load(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	switch {
	case base.ledger != nil && cand.ledger != nil:
		return compareLedgers(stdout, base, cand, *rel, *zThresh, *minAbs), nil
	case base.health != nil && cand.health != nil:
		return compareHealth(stdout, base, cand, *rel, *zThresh), nil
	case base.manifest != nil && cand.manifest != nil:
		return compareManifests(stdout, base, cand, *rel), nil
	default:
		return 0, fmt.Errorf("cannot compare %s (%s) against %s (%s): mixed artifact kinds",
			base.path, base.kind(), cand.path, cand.kind())
	}
}

func runValidate(path string, stdout io.Writer) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	a, err := decode(data, true)
	switch {
	case err != nil:
		// Validation failures are the tool's verdict, not its malfunction.
		fmt.Fprintf(stdout, "INVALID %s: %v\n", path, err)
		return 1, nil
	case a.health != nil:
		hl := a.health
		fmt.Fprintf(stdout, "OK %s: health schema %d, world %d, %d rows through step %d, %d alert(s)\n",
			path, hl.Header.HealthSchema, hl.Header.World, len(hl.Rows), hl.Header.LastStep, hl.Header.Alerts)
	default:
		l := a.ledger
		fmt.Fprintf(stdout, "OK %s: schema %d, source %s, %d ranks, %d rows, buckets sum to step walls within %g\n",
			path, l.Schema, l.Source, l.Ranks, len(l.Steps), traceanalysis.SumEpsilon)
	}
	return 0, nil
}

// artifact is one loaded input file: exactly one of
// ledger/health/manifest is set.
type artifact struct {
	path     string
	ledger   *traceanalysis.Ledger
	health   *modelhealth.Ledger
	manifest *manifest
}

func (a artifact) kind() string {
	switch {
	case a.ledger != nil:
		return "ledger"
	case a.health != nil:
		return "health ledger"
	default:
		return "manifest"
	}
}

// manifest mirrors the fields of obs.Manifest this tool diffs; decoded
// structurally so seg-compare can read manifests from other builds.
type manifest struct {
	Tool            string  `json:"tool"`
	GitRev          string  `json:"git_rev"`
	Seed            int64   `json:"seed"`
	ChaosSpec       string  `json:"chaos_spec"`
	FinalEfficiency float64 `json:"final_efficiency"`
	Restarts        int     `json:"restarts"`
}

// load reads and decodes one artifact to compare.
func load(path string) (artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, err
	}
	a, err := decode(data, false)
	if err != nil {
		return artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	a.path = path
	return a, nil
}

// decode sniffs the artifact kind and parses and validates it:
// manifests carry "tool", attribution ledgers carry "schema", health
// ledgers open with a "health_schema" header line. The probe decodes
// only the first JSON value so JSONL health ledgers sniff the same way
// single-object artifacts do. ledgersOnly is -validate's contract:
// whatever is not a health ledger goes to the strict attribution
// ledger reader, which rejects a manifest's or any unknown field; a
// diff reads attribution ledgers leniently, ignoring unknown fields.
func decode(data []byte, ledgersOnly bool) (artifact, error) {
	var probe struct {
		Tool         string `json:"tool"`
		Schema       *int   `json:"schema"`
		HealthSchema *int   `json:"health_schema"`
	}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe)
	switch {
	case err != nil && !ledgersOnly:
		return artifact{}, err
	case probe.HealthSchema != nil:
		hl, err := modelhealth.ReadLedger(bytes.NewReader(data))
		if err == nil {
			err = hl.Validate()
		}
		return artifact{health: hl}, err
	case probe.Tool != "" && !ledgersOnly:
		var m manifest
		err := json.Unmarshal(data, &m)
		return artifact{manifest: &m}, err
	case ledgersOnly:
		l, err := traceanalysis.ReadLedger(bytes.NewReader(data))
		return artifact{ledger: l}, err
	case probe.Schema != nil:
		var l traceanalysis.Ledger
		err := json.Unmarshal(data, &l)
		if err == nil {
			err = l.Validate(traceanalysis.SumEpsilon)
		}
		return artifact{ledger: &l}, err
	default:
		return artifact{}, errors.New("not a run manifest, attribution ledger, or health ledger")
	}
}

// stats is a sample set's mean and variance.
type stats struct {
	n        int
	mean, sv float64 // sv: sample variance
}

func summarize(xs []float64) stats {
	s := stats{n: len(xs)}
	if s.n == 0 {
		return s
	}
	for _, x := range xs {
		s.mean += x
	}
	s.mean /= float64(s.n)
	for _, x := range xs {
		s.sv += (x - s.mean) * (x - s.mean)
	}
	if s.n > 1 {
		s.sv /= float64(s.n - 1)
	}
	return s
}

// zScore is the two-sample z statistic for candidate mean minus
// baseline mean; zero-variance pairs with a real delta score +Inf (an
// exact shift of a deterministic quantity is maximally significant).
func zScore(b, c stats) float64 {
	d := c.mean - b.mean
	if d == 0 {
		return 0
	}
	se := math.Sqrt(b.sv/float64(b.n) + c.sv/float64(c.n))
	if se == 0 {
		return math.Inf(sign(d))
	}
	return d / se
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// gate prints a diff table, one row per metric, and counts the rows
// that regressed. A one-sided gate (attribution: only slower is worse)
// flags a rise that clears -min-abs, -rel and -z and calls the
// matching fall "improved"; a two-sided gate (health) flags a shift
// that clears them in either direction.
type gate struct {
	w                    io.Writer
	rel, zThresh, minAbs float64
	twoSided             bool
	regressions          int
}

// newGate prints the table header, label naming the row column.
func newGate(w io.Writer, label string, rel, zThresh, minAbs float64, twoSided bool) *gate {
	fmt.Fprintf(w, "%-20s %12s %12s %10s %8s %8s  %s\n",
		label, "base mean", "cand mean", "delta", "rel", "z", "verdict")
	return &gate{w: w, rel: rel, zThresh: zThresh, minAbs: minAbs, twoSided: twoSided}
}

func (g *gate) row(name string, bs, cs stats) {
	d := cs.mean - bs.mean
	relD := 0.0
	if bs.mean != 0 {
		relD = d / bs.mean
	} else if d != 0 {
		relD = math.Inf(sign(d))
	}
	z := zScore(bs, cs)
	verdict := "ok"
	switch {
	case g.twoSided && math.Abs(d) > g.minAbs && math.Abs(relD) > g.rel && math.Abs(z) > g.zThresh,
		!g.twoSided && d > g.minAbs && relD > g.rel && z > g.zThresh:
		verdict = "REGRESSION"
		g.regressions++
	case !g.twoSided && d < -g.minAbs && relD < -g.rel && z < -g.zThresh:
		verdict = "improved"
	}
	fmt.Fprintf(g.w, "%-20s %12.6f %12.6f %+10.6f %+7.1f%% %8.1f  %s\n",
		name, bs.mean, cs.mean, d, 100*relD, z, verdict)
}

func compareLedgers(w io.Writer, base, cand artifact, rel, zThresh, minAbs float64) int {
	b, c := base.ledger, cand.ledger
	fmt.Fprintf(w, "attribution diff: %s (%d rows) -> %s (%d rows)\n\n",
		base.path, len(b.Steps), cand.path, len(c.Steps))
	g := newGate(w, "bucket", rel, zThresh, minAbs, false)
	for i, name := range traceanalysis.BucketNames {
		g.row(name, summarize(b.BucketSamples(i)), summarize(c.BucketSamples(i)))
	}
	g.row("step_wall", summarize(stepWalls(b)), summarize(stepWalls(c)))

	fmt.Fprintf(w, "\nblame: baseline %s, candidate %s\n", blameLine(b), blameLine(c))
	if g.regressions > 0 {
		fmt.Fprintf(w, "\nRESULT: %d bucket(s) regressed\n", g.regressions)
		return 1
	}
	fmt.Fprintf(w, "\nRESULT: no regression\n")
	return 0
}

func stepWalls(l *traceanalysis.Ledger) []float64 {
	out := make([]float64, 0, len(l.Steps))
	for _, s := range l.Steps {
		out = append(out, s.StepSec)
	}
	return out
}

// blameLine renders a ledger's most-blamed rank ("rank 2 (18/36
// rows)") or "no rank blamed".
func blameLine(l *traceanalysis.Ledger) string {
	counts := l.BlameCounts()
	best, bestN := -1, 0
	for r, n := range counts {
		if n > bestN {
			best, bestN = r, n
		}
	}
	if best < 0 {
		return "no rank blamed"
	}
	return fmt.Sprintf("rank %d blamed most (%d/%d rows)", best, bestN, len(l.Steps))
}

// healthSamples pulls one metric's per-row samples out of a health
// ledger: grad rows feed grad_l2 and upd_ratio, act rows feed
// dead_frac.
func healthSamples(l *modelhealth.Ledger, kind string, field func(modelhealth.Row) float64) []float64 {
	out := make([]float64, 0, len(l.Rows))
	for _, r := range l.Rows {
		if r.Kind == kind {
			out = append(out, field(r))
		}
	}
	return out
}

func healthNonFinite(l *modelhealth.Ledger) int {
	n := 0
	for _, r := range l.Rows {
		n += r.NonFinite
	}
	return n
}

// compareHealth gates on gradient-health distributions. Unlike the
// attribution diff (where only slower is worse), the health gate is
// two-sided: a candidate whose gradient norms collapsed is as suspect
// as one whose norms exploded — either means the fp16 or hierarchical
// path is not computing the same optimisation trajectory. Non-finite
// elements and sentinel trips may not increase at all.
func compareHealth(w io.Writer, base, cand artifact, rel, zThresh float64) int {
	b, c := base.health, cand.health
	fmt.Fprintf(w, "health diff: %s (%d rows) -> %s (%d rows)\n\n",
		base.path, len(b.Rows), cand.path, len(c.Rows))
	g := newGate(w, "metric", rel, zThresh, 0, true)
	gradL2 := func(r modelhealth.Row) float64 { return r.GradL2 }
	updRatio := func(r modelhealth.Row) float64 { return r.UpdRatio }
	deadFrac := func(r modelhealth.Row) float64 { return r.DeadFrac }
	g.row("grad_l2", summarize(healthSamples(b, "grad", gradL2)), summarize(healthSamples(c, "grad", gradL2)))
	g.row("upd_ratio", summarize(healthSamples(b, "grad", updRatio)), summarize(healthSamples(c, "grad", updRatio)))
	g.row("dead_frac", summarize(healthSamples(b, "act", deadFrac)), summarize(healthSamples(c, "act", deadFrac)))

	bNF, cNF := healthNonFinite(b), healthNonFinite(c)
	fmt.Fprintf(w, "\nnonfinite elements: %d -> %d\n", bNF, cNF)
	fmt.Fprintf(w, "sentinel trips:     %d -> %d\n", b.Header.Alerts, c.Header.Alerts)
	if cNF > bNF {
		fmt.Fprintf(w, "HARD REGRESSION: candidate introduced %d non-finite gradient/activation elements\n", cNF-bNF)
		g.regressions++
	}
	if c.Header.Alerts > b.Header.Alerts {
		fmt.Fprintf(w, "HARD REGRESSION: candidate tripped %d more sentinel(s) than baseline\n",
			c.Header.Alerts-b.Header.Alerts)
		g.regressions++
	}
	if g.regressions > 0 {
		fmt.Fprintf(w, "\nRESULT: %d health metric(s) regressed\n", g.regressions)
		return 1
	}
	fmt.Fprintf(w, "\nRESULT: no regression\n")
	return 0
}

func compareManifests(w io.Writer, base, cand artifact, rel float64) int {
	b, c := base.manifest, cand.manifest
	fmt.Fprintf(w, "manifest diff: %s -> %s\n", base.path, cand.path)
	fmt.Fprintf(w, "  tool:       %s -> %s\n", b.Tool, c.Tool)
	fmt.Fprintf(w, "  git_rev:    %s -> %s\n", b.GitRev, c.GitRev)
	fmt.Fprintf(w, "  seed:       %d -> %d\n", b.Seed, c.Seed)
	fmt.Fprintf(w, "  chaos_spec: %q -> %q\n", b.ChaosSpec, c.ChaosSpec)
	fmt.Fprintf(w, "  restarts:   %d -> %d\n", b.Restarts, c.Restarts)
	fmt.Fprintf(w, "  efficiency: %.4f -> %.4f\n", b.FinalEfficiency, c.FinalEfficiency)
	if b.FinalEfficiency > 0 {
		drop := (b.FinalEfficiency - c.FinalEfficiency) / b.FinalEfficiency
		if drop > rel {
			fmt.Fprintf(w, "\nRESULT: efficiency dropped %.1f%% (threshold %.1f%%)\n", 100*drop, 100*rel)
			return 1
		}
	}
	fmt.Fprintf(w, "\nRESULT: no regression\n")
	return 0
}
