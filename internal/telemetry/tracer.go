package telemetry

import (
	"sync"

	"segscale/internal/timeline"
)

// Tracer records spans as timeline.Events against an injected
// deterministic clock. A span's Edge, when non-empty, is the
// message-edge attribute ("src>dst#seq.inc", see timeline.Edge) that
// pairs a send span with its matching recv span across lanes — the raw
// material of the happens-before DAG. A nil Tracer is a valid no-op. A
// Tracer is safe for concurrent use; for deterministic traces give each
// rank its own Tracer (the Collector merges them).
type Tracer struct {
	clock Clock

	mu     sync.Mutex
	spans  []timeline.Event
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

// Span is an in-flight interval returned by Start: the record it will
// add, End still unset. The zero Span (and any Span from a nil Tracer)
// is a no-op.
type Span struct {
	t  *Tracer
	ev timeline.Event
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
	return Span{t: t, ev: timeline.Event{Lane: lane, Phase: phase, Name: name, Start: t.clock.Now(), Edge: edge}}
}

// SetEdge attaches a message-edge attribute to an in-flight span. The
// receive path learns its edge only once a message is taken, after the
// span has already opened. No-op on a no-op span.
func (s *Span) SetEdge(edge string) {
	if s.t != nil {
		s.ev.Edge = edge
	}
}

// End closes the span, records it, and returns its duration in the
// clock's units (useful for feeding duration histograms). Calling End
// on a no-op span does nothing and returns zero.
func (s Span) End() float64 {
	if s.t == nil {
		return 0
	}
	s.ev.End = s.t.clock.Now()
	if s.ev.End < s.ev.Start {
		s.ev.End = s.ev.Start // a non-monotonic injected clock must not corrupt the trace
	}
	s.t.record(s.ev)
	return s.ev.End - s.ev.Start
}

// Add records an already-measured interval, start and end given
// rather than read from the clock (Probe.Mark's instantaneous events
// take this path). Intervals with end < start are clamped to zero
// duration. Nil-safe.
func (t *Tracer) Add(lane, phase, name string, start, end float64) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.record(timeline.Event{Lane: lane, Phase: phase, Name: name, Start: start, End: end})
}

// record appends a finished span and mirrors it into the flight ring.
func (t *Tracer) record(ev timeline.Event) {
	t.mu.Lock()
	t.spans = append(t.spans, ev)
	flight := t.flight
	t.mu.Unlock()
	flight.Record(ev)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []timeline.Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]timeline.Event(nil), t.spans...)
}
