package telemetry

import (
	"math"
	"sort"
	"sync"

	"segscale/internal/timeline"
)

// Collector gathers per-rank probes and merges their metrics and
// spans for export — the telemetry analogue of merging per-rank
// confusion matrices into one global mIOU. A nil Collector is a
// valid no-op whose NewProbe returns a nil (no-op) probe, so a single
// `cfg.Telemetry` field drives the whole instrumented path.
type Collector struct {
	mu     sync.Mutex
	probes []*Probe
	flight *FlightRecorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// NewProbe creates a probe on the given lane and clock and attaches
// it. Nil-safe: a nil collector returns a nil probe.
func (c *Collector) NewProbe(lane string, clock Clock) *Probe {
	if c == nil {
		return nil
	}
	p := NewProbe(lane, clock)
	c.Attach(p)
	return p
}

// Attach registers an externally built probe (nil probes ignored).
// If the collector has a flight recorder enabled, the probe's tracer
// starts mirroring into it.
func (c *Collector) Attach(p *Probe) {
	if c == nil || p == nil {
		return
	}
	c.mu.Lock()
	c.probes = append(c.probes, p)
	flight := c.flight
	c.mu.Unlock()
	if flight != nil {
		p.Tracer().SetFlight(flight)
	}
}

// EnableFlight installs a flight recorder keeping the last capacity
// events (DefaultFlightCapacity if capacity <= 0) and attaches it to
// every current and future probe. Idempotent: a second call returns
// the existing recorder unchanged. Nil-safe: a nil collector returns
// a nil (no-op) recorder.
func (c *Collector) EnableFlight(capacity int) *FlightRecorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	if c.flight == nil {
		c.flight = NewFlightRecorder(capacity)
	}
	flight := c.flight
	probes := append([]*Probe(nil), c.probes...)
	c.mu.Unlock()
	for _, p := range probes {
		p.Tracer().SetFlight(flight)
	}
	return flight
}

// Flight returns the collector's flight recorder (nil when
// EnableFlight was never called).
func (c *Collector) Flight() *FlightRecorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flight
}

// Probes returns the attached probes.
func (c *Collector) Probes() []*Probe {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Probe(nil), c.probes...)
}

// Timeline returns every attached probe's spans as one recorder,
// ordered by start time (ties by lane, then insertion) — the merged
// trace that WriteChromeTrace, trace analysis and chrome://tracing
// consume.
func (c *Collector) Timeline() *timeline.Recorder {
	rec := timeline.New()
	for _, p := range c.Probes() {
		rec.Events = append(rec.Events, p.Tracer().Spans()...)
	}
	ev := rec.Events
	sort.SliceStable(ev, func(i, j int) bool {
		if ev[i].Start != ev[j].Start {
			return ev[i].Start < ev[j].Start
		}
		return ev[i].Lane < ev[j].Lane
	})
	return rec
}

// HistSnapshot is one histogram's merged state.
type HistSnapshot struct {
	// Bounds are bucket upper bounds; Counts has len(Bounds)+1
	// entries, the last being the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Total  uint64    `json:"total"`
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation within the owning bucket — see
// Histogram.Quantile for the edge cases.
func (h *HistSnapshot) Quantile(q float64) float64 {
	if h == nil || h.Total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Total)
	var cum uint64
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i == len(h.Bounds) {
			// +Inf bucket: the buckets cannot resolve past the last
			// finite bound.
			if len(h.Bounds) == 0 {
				return math.NaN()
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-float64(prev))/float64(c)
	}
	return math.NaN() // unreachable: cum == Total >= rank by the end
}

// merge adds o bucket-wise; histograms with different bounds cannot
// merge and o is dropped with ok=false.
func (h *HistSnapshot) merge(o *HistSnapshot) bool {
	if len(h.Bounds) != len(o.Bounds) {
		return false
	}
	for i := range h.Bounds {
		if h.Bounds[i] != o.Bounds[i] {
			return false
		}
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
	h.Total += o.Total
	return true
}

// MetricSnapshot is one metric merged across lanes.
type MetricSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge", "histogram"
	// PerLane holds each lane's value (counter total / last gauge
	// value / histogram observation count).
	PerLane map[string]float64 `json:"per_lane"`
	// Value is the cross-lane aggregate: counters sum, gauges take
	// the maximum (the straggler-facing choice for depths and fill
	// levels), histograms report the merged observation count.
	Value float64 `json:"value"`
	// Hist carries the merged buckets for histograms (nil otherwise).
	Hist *HistSnapshot `json:"hist,omitempty"`
}

// Gather merges every attached probe's registry into one snapshot
// per metric name, sorted by name.
func (c *Collector) Gather() []MetricSnapshot {
	byName := map[string]*MetricSnapshot{}
	var names []string
	for _, p := range c.Probes() {
		reg := p.Metrics()
		for _, rg := range reg.names() {
			snap, ok := byName[rg.name]
			if !ok {
				snap = &MetricSnapshot{Name: rg.name, PerLane: map[string]float64{}}
				byName[rg.name] = snap
				names = append(names, rg.name)
			}
			switch rg.kind {
			case kindCounter:
				snap.Kind = "counter"
				v := reg.Counter(rg.name).Value()
				snap.PerLane[reg.Lane()] += v
				snap.Value += v
			case kindGauge:
				snap.Kind = "gauge"
				v := reg.Gauge(rg.name).Value()
				snap.PerLane[reg.Lane()] = v
				if v > snap.Value {
					snap.Value = v
				}
			case kindHistogram:
				snap.Kind = "histogram"
				h := reg.histogram(rg.name)
				counts, sum, total := h.Snapshot()
				hs := &HistSnapshot{Bounds: h.Bounds(), Counts: counts, Sum: sum, Total: total}
				snap.PerLane[reg.Lane()] += float64(total)
				if snap.Hist == nil {
					snap.Hist = hs
				} else {
					snap.Hist.merge(hs)
				}
				snap.Value = float64(snap.Hist.Total)
			}
		}
	}
	sort.Strings(names)
	out := make([]MetricSnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}
