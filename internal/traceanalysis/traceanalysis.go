// Package traceanalysis turns a recorded timeline into the reports a
// performance engineer asks for first: where did the time go
// (per-phase duration statistics), what sequence of events bounded
// the run (critical path), and which rank paced each step (the
// attribution ledger's blame, built over the happens-before DAG). It
// consumes the same timeline.Recorder that both the simulator and the
// real training loop emit, so one tool serves both.
package traceanalysis

import (
	"fmt"
	"math"
	"sort"

	"segscale/internal/timeline"
)

// histBuckets is the linear bucket count of every per-phase duration
// histogram.
const histBuckets = 8

// PhaseStats summarises one phase's event durations.
type PhaseStats struct {
	Phase string
	Count int
	Total float64 // summed duration, seconds
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P90   float64
	// Hist is a linear histogram of durations over [Min, Max] with
	// len(Hist) equal buckets (all events land in bucket 0 when
	// Min == Max).
	Hist []int
}

// PathStep is one event on the critical path, with the idle gap that
// preceded it.
type PathStep struct {
	Event  timeline.Event
	GapSec float64 // idle time between the previous step's end and this start
}

// LaneStats is one lane's aggregate activity.
type LaneStats struct {
	Lane    string
	Events  int
	BusySec float64
}

// Report is the full analysis of one trace.
type Report struct {
	Events  int
	SpanSec float64
	Phases  []PhaseStats // sorted by Total, descending
	Lanes   []LaneStats  // sorted by lane name

	// CriticalPath chains backwards from the latest-ending event:
	// each step's predecessor is the latest-ending event that ends at
	// or before the step starts. The result is in chronological
	// order. CriticalSec is the summed busy time on the path;
	// SpanSec - CriticalSec - (summed gaps) is zero by construction.
	CriticalPath []PathStep
	CriticalSec  float64
}

// Analyze computes the report. It errors on an empty or zero-width
// trace rather than emitting a degenerate report.
func Analyze(rec *timeline.Recorder) (*Report, error) {
	if rec == nil || len(rec.Events) == 0 {
		return nil, fmt.Errorf("traceanalysis: trace has no events")
	}
	lo, hi := rec.Span()
	if hi <= lo {
		return nil, fmt.Errorf("traceanalysis: trace spans zero time")
	}
	r := &Report{Events: len(rec.Events), SpanSec: hi - lo}
	r.Phases = phaseStats(rec.Events)
	r.Lanes = laneStats(rec.Events)
	r.CriticalPath, r.CriticalSec = criticalPath(rec.Events)
	return r, nil
}

func phaseStats(events []timeline.Event) []PhaseStats {
	durs := map[string][]float64{}
	for _, e := range events {
		durs[e.Phase] = append(durs[e.Phase], e.End-e.Start)
	}
	phases := make([]string, 0, len(durs))
	for ph := range durs {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	out := make([]PhaseStats, 0, len(durs))
	for _, ph := range phases {
		ds := durs[ph]
		sort.Float64s(ds)
		st := PhaseStats{
			Phase: ph, Count: len(ds),
			Min: ds[0], Max: ds[len(ds)-1],
			P50: quantile(ds, 0.50), P90: quantile(ds, 0.90),
			Hist: make([]int, histBuckets),
		}
		for _, d := range ds {
			st.Total += d
		}
		st.Mean = st.Total / float64(st.Count)
		width := (st.Max - st.Min) / histBuckets
		for _, d := range ds {
			i := 0
			if width > 0 {
				i = int((d - st.Min) / width)
				if i >= histBuckets {
					i = histBuckets - 1 // d == Max lands in the top bucket
				}
			}
			st.Hist[i]++
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// quantile interpolates q in [0,1] over sorted ds.
func quantile(ds []float64, q float64) float64 {
	if len(ds) == 1 {
		return ds[0]
	}
	pos := q * float64(len(ds)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	return ds[i]*(1-frac) + ds[i+1]*frac
}

func laneStats(events []timeline.Event) []LaneStats {
	byLane := map[string]*LaneStats{}
	var names []string
	for _, e := range events {
		ls, ok := byLane[e.Lane]
		if !ok {
			ls = &LaneStats{Lane: e.Lane}
			byLane[e.Lane] = ls
			names = append(names, e.Lane)
		}
		ls.Events++
		ls.BusySec += e.End - e.Start
	}
	sort.Strings(names)
	out := make([]LaneStats, 0, len(names))
	for _, n := range names {
		out = append(out, *byLane[n])
	}
	return out
}

// criticalPath chains backwards from the latest-ending event. The
// predecessor of a step is the latest-ending event (any lane) whose
// end does not pass the step's start — the event whose completion
// released the step to run. Ties break toward longer events so the
// path prefers substantive work over zero-width markers.
func criticalPath(events []timeline.Event) ([]PathStep, float64) {
	sorted := make([]timeline.Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].End != sorted[j].End {
			return sorted[i].End < sorted[j].End
		}
		return sorted[i].Start < sorted[j].Start
	})
	// Walk from the event that finishes last.
	cur := sorted[len(sorted)-1]
	var rev []timeline.Event
	rev = append(rev, cur)
	for {
		var pred *timeline.Event
		// Candidates are sorted[:idx] — everything ending by
		// cur.Start. Scan from the latest-ending down; requiring
		// Start strictly before cur.Start guarantees progress (a
		// zero-width marker exactly at the boundary cannot become
		// its own predecessor).
		idx := sort.Search(len(sorted), func(i int) bool { return sorted[i].End > cur.Start })
		for i := idx - 1; i >= 0; i-- {
			e := sorted[i]
			if pred != nil && e.End < pred.End {
				break // ends only decrease from here; the winner is fixed
			}
			if e.Start >= cur.Start {
				continue
			}
			if pred == nil || e.Start < pred.Start {
				e := e
				pred = &e
			}
		}
		if pred == nil {
			break
		}
		cur = *pred
		rev = append(rev, cur)
	}
	steps := make([]PathStep, 0, len(rev))
	var busy float64
	for i := len(rev) - 1; i >= 0; i-- {
		e := rev[i]
		gap := 0.0
		if i < len(rev)-1 {
			gap = e.Start - rev[i+1].End
		}
		steps = append(steps, PathStep{Event: e, GapSec: gap})
		busy += e.End - e.Start
	}
	return steps, busy
}
