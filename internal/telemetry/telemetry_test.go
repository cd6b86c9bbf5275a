package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestStepClockMonotonic(t *testing.T) {
	c := NewStepClock()
	prev := c.Now()
	for i := 0; i < 100; i++ {
		v := c.Now()
		if v <= prev {
			t.Fatalf("step clock went %g -> %g", prev, v)
		}
		prev = v
	}
}

func TestValidMetricName(t *testing.T) {
	good := []string{
		"transport_sent_bytes", "train_steps_total", "des_events_total",
		"perfsim_allreduce_seconds", "horovod_fusion_fill_ratio",
		"train_step_ops", "des_queue_depth_events",
	}
	for _, n := range good {
		if !ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = false, want true", n)
		}
	}
	bad := []string{
		"", "_total", "Total_bytes", "sentBytes", "sent-bytes",
		"sent bytes", "sent__bytes", "_leading_total", "9lives_total",
		"latency", "latency_us", "bytes", "total",
	}
	for _, n := range bad {
		if ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = true, want false", n)
		}
	}
}

func TestRegistryRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad metric name accepted")
		}
	}()
	NewRegistry("r").Counter("camelCaseBytes")
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry("rank0")
	c := r.Counter("xfer_bytes")
	c.Add(10)
	c.Add(-5) // ignored: counters only go up
	c.Inc()
	if got := c.Value(); got != 11 {
		t.Fatalf("counter = %g, want 11", got)
	}
	if r.Counter("xfer_bytes") != c {
		t.Fatal("repeat registration returned a different counter")
	}

	g := r.Gauge("queue_depth_events")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}

	h := r.Histogram("lat_seconds", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, 10} {
		h.Observe(v)
	}
	counts, sum, total := h.Snapshot()
	if total != 5 || sum != 565.5 {
		t.Fatalf("histogram total=%d sum=%g", total, sum)
	}
	want := []uint64{1, 2, 1, 1} // <=1, <=10, <=100, +Inf
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], w, counts)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var p *Probe
	var c *Collector
	sp := p.Span("PHASE", "x")
	sp.End()
	p.Counter("a_total").Inc()
	p.Gauge("b_ratio").Set(1)
	p.Histogram("c_seconds", nil).Observe(1)
	if p.Tracer().Spans() != nil || p.Metrics().Counter("d_total") != nil {
		t.Fatal("nil probe leaked non-nil instruments")
	}
	if c.NewProbe("rank0", NewStepClock()) != nil {
		t.Fatal("nil collector built a probe")
	}
	c.Attach(NewProbe("r", NewStepClock()))
	if got := c.Probes(); got != nil {
		t.Fatalf("nil collector holds probes %v", got)
	}
	var tr *Tracer
	tr.Add("l", "p", "n", 0, 1)
	s := tr.Start("l", "p", "n")
	s.End()
	var ctr *Counter
	ctr.Add(1)
	if ctr.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	var g *Gauge
	g.Set(1)
}

func TestSpanUsesClock(t *testing.T) {
	clock := NewStepClock()
	tr := NewTracer(clock)
	sp := tr.Start("rank0", "FORWARD", "step0")
	clock.Now() // an intervening operation tick
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].End-spans[0].Start != 2 {
		t.Fatalf("span duration %g ops, want 2", spans[0].End-spans[0].Start)
	}
}

func TestCollectorGatherMerges(t *testing.T) {
	col := NewCollector()
	for r := 0; r < 3; r++ {
		p := col.NewProbe("rank"+string(rune('0'+r)), NewStepClock())
		p.Counter("sent_bytes").Add(float64(10 * (r + 1)))
		p.Gauge("fill_ratio").Set(float64(r))
		p.Histogram("step_ops", []float64{1, 2}).Observe(float64(r))
	}
	snaps := col.Gather()
	byName := map[string]MetricSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	if got := byName["sent_bytes"]; got.Kind != "counter" || got.Value != 60 {
		t.Fatalf("sent_bytes = %+v, want summed 60", got)
	}
	if got := byName["fill_ratio"]; got.Kind != "gauge" || got.Value != 2 {
		t.Fatalf("fill_ratio = %+v, want max 2", got)
	}
	h := byName["step_ops"]
	if h.Kind != "histogram" || h.Hist == nil || h.Hist.Total != 3 || h.Hist.Sum != 3 {
		t.Fatalf("step_ops = %+v", h)
	}
	if h.PerLane["rank1"] != 1 {
		t.Fatalf("per-lane histogram count %v", h.PerLane)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	if len(b) != len(want) {
		t.Fatalf("buckets %v", b)
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > want[i]*1e-9 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	if ExpBuckets(0, 10, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("degenerate bucket specs accepted")
	}
}

func TestNonMonotonicClockClamped(t *testing.T) {
	vals := []float64{5, 1} // End reads an earlier time than Start
	i := 0
	tr := NewTracer(ClockFunc(func() float64 { v := vals[i]; i++; return v }))
	sp := tr.Start("l", "P", "n")
	sp.End()
	s := tr.Spans()[0]
	if s.End < s.Start {
		t.Fatalf("span not clamped: %+v", s)
	}
}

func TestMetricSuffixesDocumented(t *testing.T) {
	// The suffix list is part of the public contract (docs, seglint
	// pass); catch accidental edits.
	joined := strings.Join(MetricSuffixes, ",")
	if joined != "_seconds,_bytes,_total,_ratio,_ops,_events,_norm" {
		t.Fatalf("MetricSuffixes changed: %s", joined)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry("rank0")
	h := r.Histogram("step_seconds", []float64{1, 2, 4, 8})
	// 10 observations in (1,2], 10 in (2,4]: p50 at the boundary, p95
	// and p99 interpolated inside the (2,4] bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
		h.Observe(3)
	}
	cases := []struct{ q, want float64 }{
		{0.5, 2},     // rank 10 exhausts the (1,2] bucket exactly
		{0.95, 3.8},  // 1 + 2 + (19-10)/10 * 2
		{0.99, 3.96}, // 1 + 2 + (19.8-10)/10 * 2
		{0, 1},       // rank 0 clamps to the owning bucket's low edge
		{1, 4},       // all mass within the finite bounds
		{-0.5, 1},    // clamped to 0
		{1.5, 4},     // clamped to 1
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram quantile not NaN")
	}
	r := NewRegistry("rank0")
	empty := r.Histogram("empty_seconds", []float64{1, 2})
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
	if !math.IsNaN(empty.Quantile(math.NaN())) {
		t.Error("NaN q not NaN")
	}
	// All mass beyond the last finite bound: the estimate saturates at
	// that bound rather than inventing a value.
	over := r.Histogram("over_seconds", []float64{1, 2})
	over.Observe(100)
	if got := over.Quantile(0.5); got != 2 {
		t.Errorf("overflow-bucket quantile = %v, want last bound 2", got)
	}
	// No finite bounds at all: nothing to interpolate against.
	unbounded := r.Histogram("unbounded_seconds", nil)
	unbounded.Observe(3)
	if !math.IsNaN(unbounded.Quantile(0.5)) {
		t.Error("bound-less histogram quantile not NaN")
	}
}

func TestQuantileName(t *testing.T) {
	cases := map[string]string{
		"perfsim_step_seconds":     "perfsim_step_p99_seconds",
		"transport_sent_bytes":     "transport_sent_p99_bytes",
		"collective_allreduce_ops": "collective_allreduce_p99_ops",
	}
	for in, want := range cases {
		if got := quantileName(in, "p99"); got != want {
			t.Errorf("quantileName(%q) = %q, want %q", in, got, want)
		}
		if !ValidMetricName(quantileName(in, "p50")) {
			t.Errorf("derived name %q breaks the convention", quantileName(in, "p50"))
		}
	}
}
