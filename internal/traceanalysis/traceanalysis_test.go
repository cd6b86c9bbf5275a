package traceanalysis

import (
	"math"
	"strings"
	"testing"

	"segscale/internal/timeline"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("nil recorder: want error")
	}
	if _, err := Analyze(timeline.New()); err == nil {
		t.Error("empty trace: want error")
	}
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseForward, "x", 1.0, 1.0)
	if _, err := Analyze(rec); err == nil {
		t.Error("zero-width trace: want error")
	}
}

func TestPhaseStats(t *testing.T) {
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseForward, "f", 0, 1)
	rec.Add("rank0", timeline.PhaseForward, "f", 1, 4)
	rec.Add("rank0", timeline.PhaseAllreduce, "ar", 4, 4.5)
	r, err := Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(r.Phases))
	}
	fw := r.Phases[0] // FORWARD has the larger total, sorts first
	if fw.Phase != timeline.PhaseForward {
		t.Fatalf("top phase = %s, want FORWARD", fw.Phase)
	}
	if fw.Count != 2 || !almost(fw.Total, 4) || !almost(fw.Min, 1) || !almost(fw.Max, 3) {
		t.Errorf("FORWARD stats = %+v", fw)
	}
	if !almost(fw.Mean, 2) || !almost(fw.P50, 2) {
		t.Errorf("FORWARD mean/p50 = %g/%g, want 2/2", fw.Mean, fw.P50)
	}
	// Durations 1 and 3 over [1,3] in 8 buckets: one in the first,
	// one in the last, none between.
	if len(fw.Hist) != 8 || fw.Hist[0] != 1 || fw.Hist[7] != 1 {
		t.Fatalf("FORWARD hist = %v", fw.Hist)
	}
	for i, c := range fw.Hist[1:7] {
		if c != 0 {
			t.Errorf("FORWARD hist bucket %d = %d, want 0", i+1, c)
		}
	}
	// Single-event phase: everything lands in bucket 0.
	ar := r.Phases[1]
	if ar.Count != 1 || ar.Hist[0] != 1 {
		t.Errorf("MPI_ALLREDUCE stats = %+v", ar)
	}
}

func TestQuantile(t *testing.T) {
	ds := []float64{1, 2, 3, 4}
	if got := quantile(ds, 0.5); !almost(got, 2.5) {
		t.Errorf("p50 = %g, want 2.5", got)
	}
	if got := quantile(ds, 0); !almost(got, 1) {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := quantile(ds, 1); !almost(got, 4) {
		t.Errorf("p100 = %g, want 4", got)
	}
	if got := quantile([]float64{7}, 0.9); !almost(got, 7) {
		t.Errorf("single-element p90 = %g, want 7", got)
	}
}

func TestCriticalPath(t *testing.T) {
	// rank0: [0,2] forward, then idle; rank1: [0,1] forward then
	// [2.5,5] allreduce. The path should be rank0's forward (released
	// the exchange), a 0.5 gap, then rank1's allreduce.
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseForward, "f0", 0, 2)
	rec.Add("rank1", timeline.PhaseForward, "f1", 0, 1)
	rec.Add("rank1", timeline.PhaseAllreduce, "ar", 2.5, 5)
	r, err := Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CriticalPath) != 2 {
		t.Fatalf("path length = %d, want 2: %+v", len(r.CriticalPath), r.CriticalPath)
	}
	if r.CriticalPath[0].Event.Name != "f0" || r.CriticalPath[1].Event.Name != "ar" {
		t.Errorf("path = %q -> %q, want f0 -> ar",
			r.CriticalPath[0].Event.Name, r.CriticalPath[1].Event.Name)
	}
	if !almost(r.CriticalPath[1].GapSec, 0.5) {
		t.Errorf("gap = %g, want 0.5", r.CriticalPath[1].GapSec)
	}
	if !almost(r.CriticalSec, 4.5) {
		t.Errorf("critical busy = %g, want 4.5", r.CriticalSec)
	}
}

func TestCriticalPathZeroWidthTerminates(t *testing.T) {
	// Zero-width markers at the same instant must not produce an
	// infinite predecessor cycle.
	rec := timeline.New()
	rec.Add("rank0", timeline.PhaseNegotiate, "m1", 1, 1)
	rec.Add("rank1", timeline.PhaseNegotiate, "m2", 1, 1)
	rec.Add("rank0", timeline.PhaseForward, "f", 0, 2)
	r, err := Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CriticalPath) != 1 || r.CriticalPath[0].Event.Name != "f" {
		t.Errorf("path = %+v, want just f", r.CriticalPath)
	}
}

func TestLaneStatsSorted(t *testing.T) {
	rec := timeline.New()
	rec.Add("rank1", timeline.PhaseForward, "f", 0, 1)
	rec.Add("rank0", timeline.PhaseForward, "f", 0, 2)
	rec.Add("rank0", timeline.PhaseBackward, "b", 2, 3)
	r, err := Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range r.Lanes {
		names = append(names, l.Lane)
	}
	if strings.Join(names, ",") != "rank0,rank1" {
		t.Errorf("lanes = %v", names)
	}
	if r.Lanes[0].Events != 2 || !almost(r.Lanes[0].BusySec, 3) {
		t.Errorf("rank0 stats = %+v", r.Lanes[0])
	}
}
