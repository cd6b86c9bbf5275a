package telemetry

import "sync"

// SpanRecord is one finished traced interval. Lane is the executor
// ("rank0", "coordinator"), Phase the activity vocabulary entry
// (timeline.PhaseAllreduce, ...), Name free-form detail. Edge, when
// non-empty, is the message-edge attribute ("src>dst#seq.inc", see
// timeline.Edge) that pairs a send span with its matching recv span
// across lanes — the raw material of the happens-before DAG.
type SpanRecord struct {
	Lane  string
	Phase string
	Name  string
	Start float64
	End   float64
	Edge  string
}

// Tracer records spans against an injected deterministic clock. A nil
// Tracer is a valid no-op. A Tracer is safe for concurrent use; for
// deterministic traces give each rank its own Tracer (the Collector
// merges them).
type Tracer struct {
	clock Clock

	mu     sync.Mutex
	spans  []SpanRecord
	flight *FlightRecorder
}

// NewTracer returns a tracer reading timestamps from clock. A nil
// clock reads as zero: spans still record (pairing metadata like edge
// IDs survives) but carry no duration — callers that only want
// counters may pass nil without arming a time source.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = ClockFunc(func() float64 { return 0 })
	}
	return &Tracer{clock: clock}
}

// SetFlight mirrors every subsequently recorded span into the flight
// recorder's ring (nil detaches). Nil-safe.
func (t *Tracer) SetFlight(f *FlightRecorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flight = f
	t.mu.Unlock()
}

// Span is an in-flight interval returned by Start. The zero Span (and
// any Span from a nil Tracer) is a no-op.
type Span struct {
	t     *Tracer
	lane  string
	phase string
	name  string
	edge  string
	start float64
}

// Start opens a span on the given lane. Nil-safe: a nil Tracer
// returns a no-op Span.
func (t *Tracer) Start(lane, phase, name string) Span {
	return t.StartEdge(lane, phase, name, "")
}

// StartEdge opens a span carrying a message-edge attribute — the
// transport's send/recv instrumentation. Nil-safe.
func (t *Tracer) StartEdge(lane, phase, name, edge string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, lane: lane, phase: phase, name: name, edge: edge, start: t.clock.Now()}
}

// SetEdge attaches a message-edge attribute to an in-flight span. The
// receive path learns its edge only once a message is taken, after the
// span has already opened. No-op on a no-op span.
func (s *Span) SetEdge(edge string) {
	if s.t != nil {
		s.edge = edge
	}
}

// End closes the span, records it, and returns its duration in the
// clock's units (useful for feeding duration histograms). Calling End
// on a no-op span does nothing and returns zero.
func (s Span) End() float64 {
	if s.t == nil {
		return 0
	}
	end := s.t.clock.Now()
	if end < s.start {
		end = s.start // a non-monotonic injected clock must not corrupt the trace
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, SpanRecord{
		Lane: s.lane, Phase: s.phase, Name: s.name, Start: s.start, End: end, Edge: s.edge,
	})
	flight := s.t.flight
	s.t.mu.Unlock()
	flight.Record(FlightEvent{Lane: s.lane, Phase: s.phase, Name: s.name, Start: s.start, End: end, Edge: s.edge})
	return end - s.start
}

// Add records an already-measured interval — the path perfsim uses,
// where start/end are explicit virtual times computed by the model
// rather than clock reads. Intervals with end < start are clamped to
// zero duration. Nil-safe.
func (t *Tracer) Add(lane, phase, name string, start, end float64) {
	t.AddEdge(lane, phase, name, "", start, end)
}

// AddEdge is Add with a message-edge attribute. Nil-safe.
func (t *Tracer) AddEdge(lane, phase, name, edge string, start, end float64) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{Lane: lane, Phase: phase, Name: name, Start: start, End: end, Edge: edge})
	flight := t.flight
	t.mu.Unlock()
	flight.Record(FlightEvent{Lane: lane, Phase: phase, Name: name, Start: start, End: end, Edge: edge})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}
