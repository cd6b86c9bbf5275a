package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// MetricSuffixes are the unit suffixes a metric name must end with —
// the naming convention docs/OBSERVABILITY.md documents and the
// metricname seglint pass enforces at registration call sites:
// snake_case, ending in the quantity's unit (_seconds for virtual
// seconds, _ops for step-clock ticks, _bytes, _events) or in the
// dimensionless markers _total (monotonic counts), _ratio, and _norm
// (vector norms, e.g. the health plane's per-layer gradient L2).
var MetricSuffixes = []string{"_seconds", "_bytes", "_total", "_ratio", "_ops", "_events", "_norm"}

// ValidMetricName reports whether name follows the convention:
// lower-case snake_case with a recognised unit suffix.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	prev := byte('_') // forbids a leading '_' or digit-start via the rules below
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		case c == '_':
			if prev == '_' { // no leading or doubled underscores
				return false
			}
		default:
			return false
		}
		prev = c
	}
	for _, s := range MetricSuffixes {
		if len(name) > len(s) && name[len(name)-len(s):] == s {
			return true
		}
	}
	return false
}

// Counter is a monotonically increasing value. All methods are
// nil-safe no-ops and safe for concurrent use.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative or NaN v is ignored —
// counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a point-in-time value (queue depth, fill ratio). All
// methods are nil-safe no-ops and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last Set value (zero before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined by
// ascending upper bounds; observations beyond the last bound land in
// an implicit +Inf bucket. All methods are nil-safe no-ops and safe
// for concurrent use.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Snapshot returns cumulative per-bucket counts (ending with the +Inf
// bucket), the sum of observations, and their count.
func (h *Histogram) Snapshot() (counts []uint64, sum float64, total uint64) {
	if h == nil {
		return nil, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.total
}

// Quantile returns the q-quantile (q in [0, 1]) of the recorded
// distribution, estimated by linear interpolation within the owning
// bucket — the same estimate PromQL's histogram_quantile computes from
// the exported buckets. NaN for an empty histogram or when the
// quantile lands in the +Inf bucket of a bound-less histogram; the
// last finite bound when it lands in the +Inf bucket otherwise (the
// estimate cannot exceed what the buckets resolve). Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	counts, _, total := h.Snapshot()
	hs := HistSnapshot{Bounds: h.Bounds(), Counts: counts, Total: total}
	return hs.Quantile(q)
}

// ExpBuckets returns n exponential bucket bounds starting at lo with
// the given growth factor — the shape latency and size distributions
// want.
func ExpBuckets(lo, factor float64, n int) []float64 {
	if n <= 0 || lo <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind tags registry entries for exporters.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// Registry owns one instrumentation domain's metrics — one instance
// per rank, merged by the Collector the same way per-rank confusion
// matrices merge into a global mIOU. A nil Registry is a valid no-op.
type Registry struct {
	// Lane labels this registry's series in merged exports ("rank0",
	// "sim"). Set once at construction.
	lane string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	order    []registered
}

type registered struct {
	name string
	kind metricKind
}

// NewRegistry returns an empty registry labelled with lane.
func NewRegistry(lane string) *Registry {
	return &Registry{
		lane:     lane,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Lane returns the registry's lane label.
func (r *Registry) Lane() string {
	if r == nil {
		return ""
	}
	return r.lane
}

// checkName panics on a name that breaks the metric naming
// convention: a bad name is a programmer error at an instrumentation
// site, caught statically by the metricname seglint pass and
// dynamically here so dynamic names cannot dodge the convention.
func checkName(name string) {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q violates the naming convention (snake_case with a unit suffix %v)", name, MetricSuffixes))
	}
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil Registry returns a nil (no-op) Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.order = append(r.order, registered{name, kindCounter})
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.order = append(r.order, registered{name, kindGauge})
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the first buckets).
// Nil-safe.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
		r.order = append(r.order, registered{name, kindHistogram})
	}
	return h
}

// histogram returns the named histogram if registered, else nil.
func (r *Registry) histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// names returns the registered metric names in first-registration
// order, per kind.
func (r *Registry) names() []registered {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]registered(nil), r.order...)
}
