package traceanalysis

import (
	"sort"

	"segscale/internal/timeline"
)

// DAG is the cross-rank happens-before graph assembled from a trace.
// Per-lane timestamps in this codebase are not comparable across lanes
// (real training stamps spans with per-rank step-counter clocks), so
// causal order comes from two sources only: program order within a
// lane, and matched message edges — a send span and the recv span
// carrying the same "src>dst#seq.inc" edge ID.
//
// Nodes are trace events, indexed into Events; Succ[i] lists the
// events that happen directly after event i. BuildDAG never panics and
// never fails: malformed traces (receives without sends, duplicate
// edge IDs, edges stranded by a crashed incarnation) degrade into a
// smaller but still valid DAG, with every discarded edge counted in
// Stats so trace-stats can report the decay.
type DAG struct {
	Events []timeline.Event
	Succ   [][]int
	Lanes  []string // sorted lane names
	// Matched maps an edge ID to its [send, recv] node indices.
	Matched map[string][2]int
	Stats   DAGStats
}

// DAGStats counts how cleanly the trace's message edges paired up.
type DAGStats struct {
	MessageEdges   int // matched send→recv pairs
	OrphanRecvs    int // recv spans whose edge has no recorded send
	UnmatchedSends int // send spans whose edge has no recorded recv
	DuplicateEdges int // spans reusing an edge ID already claimed
	MalformedEdges int // edge attributes ParseEdge rejects
}

// OrphanEdges totals every degraded edge — the orphan count trace-stats
// prints. Matched pairs are not orphans.
func (s DAGStats) OrphanEdges() int {
	return s.OrphanRecvs + s.UnmatchedSends + s.DuplicateEdges + s.MalformedEdges
}

// BuildDAG assembles the happens-before DAG from a recorded trace. A
// nil or empty recorder yields an empty DAG.
func BuildDAG(rec *timeline.Recorder) *DAG {
	d := &DAG{Matched: map[string][2]int{}}
	if rec == nil || len(rec.Events) == 0 {
		return d
	}
	// Sort into per-lane program order; within a lane, (Start, End)
	// order is program order because each lane is one goroutine.
	d.Events = make([]timeline.Event, len(rec.Events))
	copy(d.Events, rec.Events)
	sort.SliceStable(d.Events, func(i, j int) bool {
		a, b := d.Events[i], d.Events[j]
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
	d.Succ = make([][]int, len(d.Events))
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Lane == d.Events[i-1].Lane {
			d.Succ[i-1] = append(d.Succ[i-1], i)
		} else {
			d.Lanes = append(d.Lanes, d.Events[i-1].Lane)
		}
	}
	d.Lanes = append(d.Lanes, d.Events[len(d.Events)-1].Lane)

	// First pass claims send sides; the recv pass then pairs against
	// them. Edge IDs are unique per message by construction (per-pair
	// seq + incarnation), so a reused ID is trace corruption, counted
	// and skipped — first claim wins.
	sends := map[string]int{}
	for i, e := range d.Events {
		if e.Edge == "" || e.Phase != timeline.PhaseSend {
			continue
		}
		if _, err := timeline.ParseEdge(e.Edge); err != nil {
			d.Stats.MalformedEdges++
			continue
		}
		if _, dup := sends[e.Edge]; dup {
			d.Stats.DuplicateEdges++
			continue
		}
		sends[e.Edge] = i
	}
	for i, e := range d.Events {
		if e.Edge == "" || e.Phase != timeline.PhaseRecv {
			continue
		}
		if _, err := timeline.ParseEdge(e.Edge); err != nil {
			d.Stats.MalformedEdges++
			continue
		}
		if _, dup := d.Matched[e.Edge]; dup {
			d.Stats.DuplicateEdges++
			continue
		}
		si, ok := sends[e.Edge]
		if !ok {
			// No recorded send: the classic shape of an edge stranded by
			// a crashed incarnation (the sender died before its span was
			// flushed) or a truncated flight-recorder window.
			d.Stats.OrphanRecvs++
			continue
		}
		d.Matched[e.Edge] = [2]int{si, i}
		d.Succ[si] = append(d.Succ[si], i)
		d.Stats.MessageEdges++
	}
	d.Stats.UnmatchedSends = len(sends) - d.Stats.MessageEdges
	return d
}

// Reaches reports whether event i happens before event j by walking
// program-order and message edges. It is the test- and tooling-facing
// causality query; O(V+E) per call.
func (d *DAG) Reaches(i, j int) bool {
	if i < 0 || j < 0 || i >= len(d.Events) || j >= len(d.Events) {
		return false
	}
	if i == j {
		return true
	}
	seen := make([]bool, len(d.Events))
	stack := []int{i}
	seen[i] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range d.Succ[n] {
			if s == j {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
