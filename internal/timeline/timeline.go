// Package timeline records Horovod-style activity traces: named
// phases (FORWARD, BACKWARD, NEGOTIATE_ALLREDUCE, MPI_ALLREDUCE,
// MEMCPY_IN_FUSION_BUFFER, ...) with start/end times per lane, plus
// aggregation into the per-phase breakdown the paper's timeline
// figure shows, and export in Chrome trace-event JSON (the format
// Horovod's own HOROVOD_TIMELINE produces and chrome://tracing
// consumes).
package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Phase names mirror Horovod's timeline vocabulary.
const (
	PhaseForward   = "FORWARD"
	PhaseBackward  = "BACKWARD"
	PhaseNegotiate = "NEGOTIATE_ALLREDUCE"
	PhaseMemcpy    = "MEMCPY_IN_FUSION_BUFFER"
	PhaseAllreduce = "MPI_ALLREDUCE"
	PhaseWait      = "WAIT_FOR_DATA"
	PhaseBcast     = "MPI_BCAST"
	PhaseAllgather = "MPI_ALLGATHER"
	PhaseBarrier   = "MPI_BARRIER"
	PhaseStep      = "TRAIN_STEP"
	PhaseRecovery  = "RECOVERY"
	PhaseSend      = "MPI_SEND"
	PhaseRecv      = "MPI_RECV"
)

// Edge identifies one message crossing the transport: the sending
// rank, the receiving rank, the per-(src,dst)-pair sequence number,
// and the world incarnation the message belongs to. A send span and
// its matching recv span carry the same Edge, which is what lets
// trace analysis stitch per-rank event lists into a cross-rank
// happens-before DAG — the causal structure per-lane timestamps
// (step-counter clocks are not comparable across ranks) cannot give.
type Edge struct {
	Src int
	Dst int
	Seq uint64
	Inc int
}

// String renders the edge in the compact "src>dst#seq.inc" form that
// rides span attributes and round-trips through Chrome trace args.
func (e Edge) String() string {
	return fmt.Sprintf("%d>%d#%d.%d", e.Src, e.Dst, e.Seq, e.Inc)
}

// ParseEdge parses the "src>dst#seq.inc" form. Malformed input is an
// error, never a panic: edges come from trace files, which analysis
// must survive in degraded form.
func ParseEdge(s string) (Edge, error) {
	var e Edge
	gt := strings.IndexByte(s, '>')
	hash := strings.IndexByte(s, '#')
	dot := strings.LastIndexByte(s, '.')
	if gt <= 0 || hash <= gt || dot <= hash {
		return e, fmt.Errorf("timeline: malformed edge %q", s)
	}
	src, err1 := strconv.Atoi(s[:gt])
	dst, err2 := strconv.Atoi(s[gt+1 : hash])
	seq, err3 := strconv.ParseUint(s[hash+1:dot], 10, 64)
	inc, err4 := strconv.Atoi(s[dot+1:])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || src < 0 || dst < 0 || inc < 0 {
		return e, fmt.Errorf("timeline: malformed edge %q", s)
	}
	return Edge{Src: src, Dst: dst, Seq: seq, Inc: inc}, nil
}

// Event is one traced interval.
type Event struct {
	Lane  string  // e.g. "rank0", "coordinator"
	Phase string  // one of the Phase* constants
	Name  string  // free-form detail (tensor/buffer name)
	Start float64 // seconds
	End   float64
	// Edge, when non-empty, is the message-edge attribute ("src>dst#seq.inc")
	// linking this span to its cross-rank counterpart (PhaseSend/PhaseRecv).
	Edge string
}

// Recorder accumulates events. The zero Recorder records; a nil
// *Recorder is the off switch (HOROVOD_TIMELINE unset): every Add is a
// no-op costing one branch.
type Recorder struct {
	Events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add records one interval (no-op on a nil recorder).
func (r *Recorder) Add(lane, phase, name string, start, end float64) {
	r.AddEdge(lane, phase, name, "", start, end)
}

// AddEdge records one interval carrying a message-edge attribute
// (no-op on a nil recorder; an empty edge is a plain Add).
func (r *Recorder) AddEdge(lane, phase, name, edge string, start, end float64) {
	if r == nil {
		return
	}
	if end < start {
		panic(fmt.Sprintf("timeline: event %q ends (%g) before start (%g)", name, end, start))
	}
	r.Events = append(r.Events, Event{Lane: lane, Phase: phase, Name: name, Start: start, End: end, Edge: edge})
}

// Breakdown sums durations per phase.
func (r *Recorder) Breakdown() map[string]float64 {
	out := map[string]float64{}
	for _, e := range r.Events {
		out[e.Phase] += e.End - e.Start
	}
	return out
}

// Span returns the [min start, max end] of all events (zeros when
// empty).
func (r *Recorder) Span() (float64, float64) {
	if len(r.Events) == 0 {
		return 0, 0
	}
	lo, hi := r.Events[0].Start, r.Events[0].End
	for _, e := range r.Events[1:] {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
	}
	return lo, hi
}

// chromeEvent is the trace-event JSON schema: "X" complete events
// for spans, and one "M" thread_name metadata event per lane.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	// Args carries span attributes (and a metadata event's lane name);
	// chrome://tracing shows them in the event detail pane, and
	// ReadChromeTrace round-trips them.
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs is the attribute payload of one trace event.
type chromeArgs struct {
	Edge string `json:"edge,omitempty"`
	Name string `json:"name,omitempty"`
}

// threadName is the metadata event that names a tid's lane.
const threadName = "thread_name"

// ReadChromeTrace parses a Chrome trace-event JSON stream written by
// WriteChromeTrace back into a Recorder, lane names restored from the
// thread_name metadata. A tid that carries no name (a foreign Horovod
// timeline, say) reads back as lane "tid<N>". It lets tooling
// re-aggregate breakdowns from saved traces.
func ReadChromeTrace(r io.Reader) (*Recorder, error) {
	var events []chromeEvent
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, fmt.Errorf("timeline: parsing trace: %w", err)
	}
	lanes := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == threadName && e.Args != nil && e.Args.Name != "" {
			lanes[e.TID] = e.Args.Name
		}
	}
	rec := New()
	for _, e := range events {
		if e.Ph != "X" {
			continue // only complete events are spans
		}
		if e.Dur < 0 {
			return nil, fmt.Errorf("timeline: negative duration in trace")
		}
		start := e.Ts / 1e6
		// WriteChromeTrace stores the event name as "PHASE:name";
		// undo that so names round-trip.
		name := strings.TrimPrefix(e.Name, e.Cat+":")
		edge := ""
		if e.Args != nil {
			edge = e.Args.Edge
		}
		lane, ok := lanes[e.TID]
		if !ok {
			lane = fmt.Sprintf("tid%d", e.TID)
		}
		rec.AddEdge(lane, e.Cat, name, edge, start, start+e.Dur/1e6)
	}
	return rec, nil
}

// WriteChromeTrace emits the events as a Chrome trace-event JSON
// array, one thread id per lane named by a thread_name metadata event,
// loadable in chrome://tracing or Perfetto — the same workflow as
// inspecting a real Horovod timeline.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	lanes := map[string]int{}
	var laneNames []string
	for _, e := range r.Events {
		if _, ok := lanes[e.Lane]; !ok {
			lanes[e.Lane] = 0
			laneNames = append(laneNames, e.Lane)
		}
	}
	sort.Strings(laneNames)
	out := make([]chromeEvent, 0, len(laneNames)+len(r.Events))
	for i, n := range laneNames {
		lanes[n] = i
		out = append(out, chromeEvent{Name: threadName, Ph: "M", TID: i, Args: &chromeArgs{Name: n}})
	}
	for _, e := range r.Events {
		ce := chromeEvent{
			Name: e.Phase + ":" + e.Name,
			Cat:  e.Phase,
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  (e.End - e.Start) * 1e6,
			PID:  0,
			TID:  lanes[e.Lane],
		}
		if e.Edge != "" {
			ce.Args = &chromeArgs{Edge: e.Edge}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
