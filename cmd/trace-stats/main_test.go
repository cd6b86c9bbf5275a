package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segscale/internal/timeline"
	"segscale/internal/traceanalysis"
)

// writeTrace saves a recorder to a temp file and returns the path.
func writeTrace(t *testing.T, rec *timeline.Recorder) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGolden(t *testing.T) {
	// Two ranks: rank1 computes 3x slower, then both allreduce.
	// Lane names round-trip through the Chrome format's thread_name
	// metadata.
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseForward, "fwd", 0, 0.001)
	rec.Add("rank1", timeline.PhaseForward, "fwd", 0, 0.003)
	rec.Add("rank0", timeline.PhaseAllreduce, "buf0", 0.003, 0.004)
	rec.Add("rank1", timeline.PhaseAllreduce, "buf0", 0.003, 0.004)
	path := writeTrace(t, rec)

	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	want := `4 events, 2 lanes, 4.000 ms span

== phase breakdown ==
FORWARD       |████████████████████████████████████████ 4.00 ms
MPI_ALLREDUCE |████████████████████                     2.00 ms
(lane-concurrent phases can sum past the 4.000 ms span)

== phase durations ==
phase                     count       mean        p50        p90        max  histogram
FORWARD                       2    2.000ms    2.000ms    2.800ms    3.000ms  █      █
MPI_ALLREDUCE                 2    1.000ms    1.000ms    1.000ms    1.000ms  █

== critical path (4.000 ms busy, 100.0% of span) ==
  rank1      FORWARD                  fwd                  3.000ms
  rank1      MPI_ALLREDUCE            buf0                 1.000ms

no attribution ledger (traceanalysis: no TRAIN_STEP windows in trace)
`
	if got != want {
		t.Errorf("output mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRunEmptyTrace(t *testing.T) {
	path := writeTrace(t, timeline.New())
	var out strings.Builder
	err := run([]string{path}, &out)
	if err == nil {
		t.Fatal("empty trace: want error")
	}
	if !strings.Contains(err.Error(), "no events") {
		t.Errorf("error = %v, want mention of no events", err)
	}
}

func TestRunMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestRunUsage(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no args: want usage error")
	}
}

func TestRunPathElision(t *testing.T) {
	rec := timeline.New()
	for i := 0; i < 6; i++ {
		lo := float64(i) * 0.001
		rec.Add("rank0", timeline.PhaseForward, "fwd", lo, lo+0.001)
	}
	path := writeTrace(t, rec)
	var out strings.Builder
	if err := run([]string{"-path", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 earlier steps elided") {
		t.Errorf("output missing elision note:\n%s", out.String())
	}
}

// attrTrace builds a two-rank trace with one TRAIN_STEP window per
// rank, a paired message edge, and rank0 idling on rank1's send.
func attrTrace() *timeline.Recorder {
	rec := timeline.New()
	edge := timeline.Edge{Src: 1, Dst: 0, Seq: 0, Inc: 0}.String()
	rec.Add("rank0", timeline.PhaseStep, "step", 0, 10)
	rec.Add("rank0", timeline.PhaseForward, "fwd", 0, 3)
	rec.AddEdge("rank0", timeline.PhaseRecv, "recv", edge, 3, 9)
	rec.Add("rank0", timeline.PhaseAllreduce, "buf0", 9, 10)
	rec.Add("rank1", timeline.PhaseStep, "step", 0, 10)
	rec.Add("rank1", timeline.PhaseForward, "fwd", 0, 8)
	rec.AddEdge("rank1", timeline.PhaseSend, "send", edge, 8, 9)
	rec.Add("rank1", timeline.PhaseAllreduce, "buf0", 9, 10)
	return rec
}

func TestRunAttrMode(t *testing.T) {
	path := writeTrace(t, attrTrace())
	out := filepath.Join(t.TempDir(), "ledger.json")
	var buf strings.Builder
	if err := run([]string{"-attr-out", out, path}, &buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	// The critical path comes first; the attribution section follows.
	if i, j := strings.Index(s, "== critical path"), strings.Index(s, "happens-before DAG:"); i < 0 || j < i {
		t.Errorf("attribution section does not follow the critical path:\n%s", s)
	}
	for _, want := range []string{
		"happens-before DAG:", "1 message edges",
		"attribution ledger: 2 ranks, 2 rows",
		"== mean step decomposition",
		"idle_wait",
		"rank 1 blamed in 1/2 rows",
		"ledger written to " + out,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("attr output missing %q:\n%s", want, s)
		}
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := traceanalysis.ReadLedger(f)
	if err != nil {
		t.Fatalf("written ledger invalid: %v", err)
	}
	if l.Ranks != 2 || len(l.Steps) != 2 {
		t.Fatalf("ledger shape: ranks %d rows %d", l.Ranks, len(l.Steps))
	}
	// The printed blame table is the ledger's BlameCounts, line for line.
	var blame []string
	for r, n := range l.BlameCounts() {
		if n > 0 {
			blame = append(blame, fmt.Sprintf("rank %d blamed in %d/%d rows", r, n, len(l.Steps)))
		}
	}
	if want := "== blame ==\n" + strings.Join(blame, "\n") + "\n"; !strings.Contains(s, want) {
		t.Errorf("blame table is not the ledger's BlameCounts %v:\n%s", l.BlameCounts(), s)
	}
}

func TestRunAttrNoBlame(t *testing.T) {
	// No message edges and no idle: the blame section must say so.
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseStep, "step", 0, 2)
	rec.Add("rank0", timeline.PhaseForward, "fwd", 0, 2)
	path := writeTrace(t, rec)
	var buf strings.Builder
	if err := run([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no idle waits attributable") {
		t.Errorf("output missing no-blame line:\n%s", buf.String())
	}
}

func TestRunAttrNoStepWindows(t *testing.T) {
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseForward, "fwd", 0, 1)
	path := writeTrace(t, rec)
	// The report still prints, with one line naming why there is no
	// ledger...
	var buf strings.Builder
	if err := run([]string{path}, &buf); err != nil {
		t.Fatalf("trace without TRAIN_STEP windows: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "\n\nno attribution ledger (traceanalysis: no TRAIN_STEP windows in trace)\n") {
		t.Errorf("output does not end in the one-line reason:\n%s", buf.String())
	}
	// ...but a ledger that was asked for and cannot be written is an
	// error.
	out := filepath.Join(t.TempDir(), "ledger.json")
	if err := run([]string{"-attr-out", out, path}, &buf); err == nil {
		t.Fatal("-attr-out on a trace without TRAIN_STEP windows: want error")
	}
}

func TestRunAttrOrphanReport(t *testing.T) {
	// A recv with no matching send must be reported, not fatal.
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseStep, "step", 0, 2)
	rec.AddEdge("rank0", timeline.PhaseRecv, "recv", "1>0#5.0", 0, 1)
	path := writeTrace(t, rec)
	var buf strings.Builder
	if err := run([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 recvs without sends") {
		t.Errorf("output missing orphan breakdown:\n%s", buf.String())
	}
}
