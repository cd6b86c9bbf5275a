// Command trace-stats analyses a Chrome trace (as written by
// summit-sim -timeline, dlv3-train -trace, or real Horovod's
// HOROVOD_TIMELINE): per-phase time breakdown and duration
// histograms, the critical path through the step, and the attribution
// ledger that says which rank paced each step.
//
// Usage:
//
//	trace-stats [-path 12] [-attr-out ledger.json] trace.json
//
// The attribution section assembles the trace's message edges into a
// cross-rank happens-before DAG, decomposes every rank's TRAIN_STEP
// windows into the sum-to-100% attribution buckets, and names which
// rank each waiter was blocked on. A trace without rank lanes or
// TRAIN_STEP windows cannot be attributed; the report says why in one
// line. -attr-out additionally writes the full ledger as canonical
// JSON, the input format of seg-compare, and makes an unattributable
// trace an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"segscale/internal/asciichart"
	"segscale/internal/timeline"
	"segscale/internal/traceanalysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace-stats: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole tool behind a testable seam: args are the
// command-line arguments (without the program name), output goes to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace-stats", flag.ContinueOnError)
	pathMax := fs.Int("path", 12, "critical-path steps to print (0 = all)")
	attrOut := fs.String("attr-out", "", "also write the attribution ledger JSON here (an unattributable trace is then an error)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: trace-stats [flags] <trace.json>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	rec, err := timeline.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	rep, err := traceanalysis.Analyze(rec)
	if err != nil {
		return err
	}
	render(stdout, rep, *pathMax)
	return renderAttr(stdout, rec, *attrOut)
}

// renderAttr prints the attribution section of a trace and optionally
// writes the ledger for seg-compare. A trace that cannot be attributed
// gets one line naming the reason, unless the ledger was asked for.
func renderAttr(w io.Writer, rec *timeline.Recorder, outPath string) error {
	dag := traceanalysis.BuildDAG(rec)
	l, err := traceanalysis.AttributeTrace(rec, dag)
	if err != nil {
		if outPath != "" {
			return err
		}
		fmt.Fprintf(w, "no attribution ledger (%v)\n", err)
		return nil
	}
	fmt.Fprintf(w, "happens-before DAG: %d events, %d lanes, %d message edges, %d orphan edges\n",
		len(dag.Events), len(dag.Lanes), dag.Stats.MessageEdges, dag.Stats.OrphanEdges())
	if o := dag.Stats; o.OrphanEdges() > 0 {
		fmt.Fprintf(w, "  (orphans: %d recvs without sends, %d unmatched sends, %d duplicate IDs, %d malformed)\n",
			o.OrphanRecvs, o.UnmatchedSends, o.DuplicateEdges, o.MalformedEdges)
	}
	fmt.Fprintf(w, "attribution ledger: %d ranks, %d rows\n\n", l.Ranks, len(l.Steps))

	fmt.Fprintln(w, "== mean step decomposition (sums to 100% of the step wall) ==")
	means := l.BucketMeans()
	wall := means.Sum()
	for i, name := range traceanalysis.BucketNames {
		pct := 0.0
		if wall > 0 {
			pct = 100 * means[i] / wall
		}
		fmt.Fprintf(w, "%-16s %10s %6.1f%%\n", name, ms(means[i]), pct)
	}
	fmt.Fprintf(w, "%-16s %10s\n\n", "step wall", ms(wall))

	fmt.Fprintln(w, "== blame ==")
	counts := l.BlameCounts()
	blamed := false
	for r, n := range counts {
		if n == 0 {
			continue
		}
		blamed = true
		fmt.Fprintf(w, "rank %d blamed in %d/%d rows\n", r, n, len(l.Steps))
	}
	if !blamed {
		fmt.Fprintln(w, "no idle waits attributable to a specific rank")
	}

	if outPath != "" {
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := l.WriteLedger(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nledger written to %s\n", outPath)
	}
	return nil
}

func render(w io.Writer, rep *traceanalysis.Report, pathMax int) {
	fmt.Fprintf(w, "%d events, %d lanes, %.3f ms span\n\n",
		rep.Events, len(rep.Lanes), rep.SpanSec*1e3)

	fmt.Fprintln(w, "== phase breakdown ==")
	var bars []asciichart.Bar
	for _, ph := range rep.Phases {
		bars = append(bars, asciichart.Bar{Label: ph.Phase, Value: ph.Total * 1e3})
	}
	fmt.Fprint(w, asciichart.HBar(bars, 40, "%.2f ms"))
	fmt.Fprintf(w, "(lane-concurrent phases can sum past the %.3f ms span)\n\n", rep.SpanSec*1e3)

	fmt.Fprintln(w, "== phase durations ==")
	fmt.Fprintf(w, "%-24s %6s %10s %10s %10s %10s  %s\n",
		"phase", "count", "mean", "p50", "p90", "max", "histogram")
	for _, ph := range rep.Phases {
		fmt.Fprintf(w, "%-24s %6d %10s %10s %10s %10s  %s\n",
			ph.Phase, ph.Count,
			ms(ph.Mean), ms(ph.P50), ms(ph.P90), ms(ph.Max), spark(ph.Hist))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "== critical path (%.3f ms busy, %.1f%% of span) ==\n",
		rep.CriticalSec*1e3, 100*rep.CriticalSec/rep.SpanSec)
	steps := rep.CriticalPath
	elided := 0
	if pathMax > 0 && len(steps) > pathMax {
		elided = len(steps) - pathMax
		steps = steps[len(steps)-pathMax:]
	}
	if elided > 0 {
		fmt.Fprintf(w, "  ... %d earlier steps elided (-path 0 for all)\n", elided)
	}
	for _, st := range steps {
		e := st.Event
		if st.GapSec > 0 {
			fmt.Fprintf(w, "  (idle %s)\n", ms(st.GapSec))
		}
		fmt.Fprintf(w, "  %-10s %-24s %-20s %s\n", e.Lane, e.Phase, e.Name, ms(e.End-e.Start))
	}
	fmt.Fprintln(w)
}

// ms renders seconds as fixed-point milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.3fms", sec*1e3) }

// spark renders bucket counts as a unicode bar row.
func spark(hist []int) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	max := 0
	for _, c := range hist {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	var sb strings.Builder
	for _, c := range hist {
		i := c * (len(levels) - 1) / max
		if c > 0 && i == 0 {
			i = 1
		}
		sb.WriteRune(levels[i])
	}
	return strings.TrimRight(sb.String(), " ")
}
