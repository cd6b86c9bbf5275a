package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"segscale/internal/timeline"
)

func exampleCollector() *Collector {
	col := NewCollector()
	for _, lane := range []string{"rank0", "rank1"} {
		p := col.NewProbe(lane, ClockFunc(func() float64 { return 0 }))
		p.Tracer().Add(lane, timeline.PhaseForward, "fwd", 0, 2)
		p.Tracer().Add(lane, timeline.PhaseAllreduce, "buf0", 2, 5)
		p.Counter("transport_sent_bytes").Add(1024)
		p.Counter("train_steps_total").Inc()
		p.Gauge("horovod_fusion_fill_ratio").Set(0.5)
		p.Histogram("collective_allreduce_ops", []float64{1, 10}).Observe(3)
	}
	return col
}

func TestChromeTraceRoundTrip(t *testing.T) {
	col := exampleCollector()
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := timeline.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 4 {
		t.Fatalf("round-tripped %d events, want 4", len(rec.Events))
	}
	br := rec.Breakdown()
	if br[timeline.PhaseForward] != 4 || br[timeline.PhaseAllreduce] != 6 {
		t.Fatalf("breakdown %v", br)
	}
}

func TestWritePrometheus(t *testing.T) {
	col := exampleCollector()
	var buf bytes.Buffer
	if err := col.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE transport_sent_bytes counter",
		`transport_sent_bytes{lane="rank0"} 1024`,
		`transport_sent_bytes{lane="rank1"} 1024`,
		"transport_sent_bytes 2048",
		"# TYPE horovod_fusion_fill_ratio gauge",
		`horovod_fusion_fill_ratio{lane="rank0"} 0.5`,
		"# TYPE collective_allreduce_ops histogram",
		`collective_allreduce_ops_bucket{le="10"} 2`,
		`collective_allreduce_ops_bucket{le="+Inf"} 2`,
		"collective_allreduce_ops_sum 6",
		"collective_allreduce_ops_count 2",
		"# TYPE collective_allreduce_p50_ops gauge",
		"collective_allreduce_p50_ops 5.5",
		"collective_allreduce_p95_ops 9.54", // 1 + 9*0.95, modulo float dust
		"collective_allreduce_p99_ops 9.91",
		"train_steps_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

func TestEmptyCollectorExports(t *testing.T) {
	col := NewCollector()
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := col.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty collector wrote %q", buf.String())
	}
}
