package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteChromeTrace emits the merged trace as Chrome trace-event JSON
// via internal/timeline's writer.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return c.Timeline().WriteChromeTrace(w)
}

// WritePrometheus renders every gathered metric in Prometheus text
// exposition format (version 0.0.4). Counters and gauges get one
// sample per lane plus, for counters, an unlabelled cross-lane sum;
// histograms are emitted merged across lanes in the standard
// _bucket/_sum/_count form. Times keep the clock's native unit
// (virtual seconds or step-clock ops), as the metric name's suffix
// states.
func (c *Collector) WritePrometheus(w io.Writer) error {
	for _, m := range c.Gather() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case "histogram":
			if err := writePromHistogram(w, m.Name, m.Hist); err != nil {
				return err
			}
			if err := writePromQuantiles(w, m.Name, m.Hist); err != nil {
				return err
			}
		default:
			for _, lane := range sortedLanes(m.PerLane) {
				if _, err := fmt.Fprintf(w, "%s{lane=%q} %s\n", m.Name, lane, promFloat(m.PerLane[lane])); err != nil {
					return err
				}
			}
			if m.Kind == "counter" {
				if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, promFloat(m.Value)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h *HistSnapshot) error {
	if h == nil {
		return nil
	}
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Total)
	return err
}

// promQuantiles are the pre-rendered quantile gauges every exported
// histogram gets alongside its raw buckets — the at-a-glance numbers a
// scrape without a PromQL engine (obs_smoke.sh, curl) needs.
var promQuantiles = []struct {
	tag string
	q   float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

// writePromQuantiles renders a histogram's estimated quantiles as
// derived gauges, the quantile tag spliced in before the unit suffix:
// perfsim_step_seconds -> perfsim_step_p99_seconds.
func writePromQuantiles(w io.Writer, name string, h *HistSnapshot) error {
	for _, pq := range promQuantiles {
		v := h.Quantile(pq.q)
		if math.IsNaN(v) {
			continue // empty histogram, or only a +Inf bucket
		}
		qn := quantileName(name, pq.tag)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", qn, qn, promFloat(v)); err != nil {
			return err
		}
	}
	return nil
}

// quantileName splices the quantile tag in before the metric's unit
// suffix, keeping the derived name convention-clean.
func quantileName(name, tag string) string {
	for _, s := range MetricSuffixes {
		if strings.HasSuffix(name, s) {
			return name[:len(name)-len(s)] + "_" + tag + s
		}
	}
	return name + "_" + tag
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedLanes(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
